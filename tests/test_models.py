"""Model zoo tests: edge inference, message passing, task heads, checkpoints."""

import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wormgnn import autodiff as ad
from wormgnn import models as m
from wormgnn import training as tr
from wormgnn.autodiff import Tensor
from wormgnn.rng import derive_rng

from model_stubs import (ConstantResidualModel, composed_edge_block, composed_edge_message, composed_gate,
                         composed_neuron_mlp, composed_node_decoder, per_neuron_linear)


def gnn_config(task=m.Task.CLASSIFY, n=4, hidden=8, **kw):
    return m.ModelConfig(module_kind=m.ModuleKind.GNN, task=task, n_neurons=n,
                         n_states=2, hidden_dim=hidden, **kw)


def mlp_config(task=m.Task.CLASSIFY, n=4, hidden=8, **kw):
    return m.ModelConfig(module_kind=m.ModuleKind.MLP, task=task, n_neurons=n,
                         n_states=2, hidden_dim=hidden, **kw)


# -- message passing -----------------------------------------------------------

def brute_force_messages(a, x):
    n, f = x.shape
    out = np.zeros((n, f))
    for i in range(n):
        for j in range(n):
            out[i] += a[i, j] * x[j]
    return out


def test_message_pass_identity():
    x = np.random.default_rng(0).normal(size=(3, 2))
    out = m.message_pass(Tensor(np.eye(3)), Tensor(x))
    assert np.array_equal(out.data, x)


def test_message_pass_hand_case():
    a = np.full((2, 2), 0.5)
    out = m.message_pass(Tensor(a), Tensor(np.eye(2)))
    assert np.array_equal(out.data, [[0.5, 0.5], [0.5, 0.5]])


def test_message_pass_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        f = int(rng.integers(1, 4))
        a = rng.uniform(size=(n, n))
        x = rng.normal(size=(n, f))
        out = m.message_pass(Tensor(a), Tensor(x))
        assert np.allclose(out.data, brute_force_messages(a, x), atol=1e-12)


def test_message_pass_self_edge_removal():
    # a connectome GNN drops the loaded diagonal when self edges are off
    matrix = np.arange(1.0, 10.0).reshape(3, 3)
    off = ~np.eye(3, dtype=bool)
    frame = Tensor(np.eye(3)[None])
    for self_edges in (False, True):
        model = m.NeuralModel(gnn_config(n=3, edge_mode=m.EdgeMode.CONNECTOME,
                                         include_self_edges=self_edges))
        model.set_connectome(matrix)
        a = model.adjacency(frame)
        assert a.shape == (3, 3) and np.array_equal(a.data[off], matrix[off])
        out = m.message_pass(a, frame).data[0]
        assert np.array_equal(np.diag(out), np.diag(matrix) if self_edges else np.zeros(3))
    assert np.array_equal(model.connectome, matrix)  # the stored matrix is unchanged


def test_message_pass_shape_mismatch():
    with pytest.raises(ValueError, match="adjacency"):
        m.message_pass(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))
    with pytest.raises(ValueError, match="features"):
        m.message_pass(Tensor(np.ones((3, 3))), Tensor(np.ones((2, 2))))


# -- edge inference ------------------------------------------------------------

def test_edge_temperature_oracle():
    # second softmax component of logits (0, 4) at temperature 0.1
    out = ad.softmax(ad.tensor([0.0, 4.0]), axis=0, temperature=0.1).data
    independent = 1.0 / (1.0 + np.exp(-40.0))
    assert out[1] == pytest.approx(independent, rel=1e-12)
    assert out[1] > 0.999


def test_equal_logits_give_half():
    out = ad.softmax(ad.tensor([1.3, 1.3]), axis=0).data
    assert out[1] == pytest.approx(0.5)


def concat_pair_logits(model, hidden: Tensor) -> Tensor:
    """Edge logits (…, N * N, 2) of the unfactored pair MLP: each ordered
    pair's [h_i, h_j] gathered, concatenated and run through edge.fc1."""
    n, axis = hidden.shape[-2], hidden.ndim - 2
    grid_i, grid_j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    pair = ad.concat([ad.index_select(hidden, axis, grid_i.reshape(-1)),
                      ad.index_select(hidden, axis, grid_j.reshape(-1))], axis=-1)
    mlp = model.edge_mlp
    h = ad.relu(mlp.fc2.forward(ad.relu(mlp.fc1.forward(pair))))
    return model.edge_head.forward(h)


def concat_edge_weights(model, feats: Tensor) -> Tensor:
    """NeuralModel.edge_weights through the unfactored pair MLP: the reference."""
    hidden = model.encoder.forward(feats, training=True)
    n = hidden.shape[-2]
    if model.config.edge_mode is not m.EdgeMode.DYNAMIC:
        hidden = ad.reshape(hidden.mean(axis=(0, 1)), (1, n, hidden.shape[-1]))
    probs = ad.softmax(concat_pair_logits(model, hidden), axis=-1,
                       temperature=model.edge_temperature())
    w = ad.reshape(ad.index_select(probs, -1, [1]), hidden.shape[:-2] + (n, n))
    w = ad.mul(w, Tensor(1.0 - np.eye(n)))
    return ad.add(w, Tensor(np.eye(n))) if model.config.include_self_edges else w


INFERRED_MODES = [m.EdgeMode.DYNAMIC, m.EdgeMode.STATIC, m.EdgeMode.ONE_HOT]


@pytest.mark.parametrize("mode", INFERRED_MODES, ids=lambda mode: mode.value)
def test_factored_pair_mlp_matches_concat_reference(mode):
    # the factoring reorders one sum per pair: edges and every parameter
    # gradient agree with the concatenating pair MLP up to rounding
    rng = np.random.default_rng(4)
    for seed in range(3):
        model = m.NeuralModel(gnn_config(n=5, edge_mode=mode, include_self_edges=bool(seed % 2)),
                              master_seed=seed)
        feats = Tensor(rng.normal(size=(3, 4, 5, 2)))
        results = []
        for factored in (True, False):
            model.zero_grad()
            w = model.edge_weights(feats) if factored else concat_edge_weights(model, feats)
            ad.mul(w, Tensor(np.cos(np.arange(w.data.size)).reshape(w.shape))).sum().backward()
            results.append((w.data, {p.name: p.tensor.grad for p in model.parameters()
                                     if p.tensor.grad is not None}))
        (w, grads), (w_ref, grads_ref) = results
        assert np.allclose(w, w_ref, rtol=0, atol=1e-12)
        assert sorted(grads) == sorted(grads_ref) and "edge.fc1.weight" in grads
        for name in grads:
            assert np.allclose(grads[name], grads_ref[name], rtol=0, atol=1e-12), name


def softmax_edge_weights(model, feats: Tensor) -> Tensor:
    """NeuralModel.edge_weights with each edge read as the second piece of the
    edge head's full temperature softmax: the reference for the gate."""
    hidden = model.encoder.forward(feats, training=True)
    n = hidden.shape[-2]
    if model.config.edge_mode is not m.EdgeMode.DYNAMIC:
        hidden = ad.reshape(hidden.mean(axis=(0, 1)), (1, n, hidden.shape[-1]))
    weights = model.edge_mlp.parameters() + model.edge_head.parameters()
    logits = composed_edge_block(hidden, *(p.tensor for p in weights))
    return composed_gate(logits, model.edge_temperature(), model.config.include_self_edges)


@pytest.mark.parametrize("mode", INFERRED_MODES, ids=lambda mode: mode.value)
@pytest.mark.parametrize("head_scale", [1.0, 1e3], ids=["plain", "saturated"])
def test_edge_gate_equals_second_softmax_component(mode, head_scale):
    # criterion 3: every edge is the second softmax component of its logits.
    # Tolerance 0: edges and every parameter gradient agree byte for byte,
    # also when a scaled edge head saturates one-hot edges to exactly 0 or 1
    rng = np.random.default_rng(8)
    model = m.NeuralModel(gnn_config(n=5, edge_mode=mode), master_seed=2)
    head = model.named_parameters()["edge_head.weight"]
    head.data = head.data * head_scale
    feats = Tensor(rng.normal(size=(3, 4, 5, 2)))
    upstream = Tensor(np.cos(np.arange(3 * 4 * 25)).reshape(3, 4, 5, 5))
    results = []
    for edges in (model.edge_weights,
                  lambda x: softmax_edge_weights(model, x)):
        model.zero_grad()
        w = edges(feats)
        ad.mul(w, upstream).sum().backward()
        results.append((w.data, [p.tensor.grad.tobytes() for p in model.parameters()
                                 if p.tensor.grad is not None]))
    (w, grads), (w_ref, grads_ref) = results
    assert w.tobytes() == w_ref.tobytes()
    assert grads == grads_ref and grads
    if mode is m.EdgeMode.ONE_HOT and head_scale > 1:
        assert model.edge_temperature() == m.ONE_HOT_TEMPERATURE
        assert np.isin(w[..., ~np.eye(5, dtype=bool)], [0.0, 1.0]).mean() > 0.5


@pytest.mark.parametrize("pairwise", [False, True], ids=["plain", "pairwise"])
def test_two_layer_mlp_keeps_one_activation_per_layer(pairwise):
    # each ReLU is part of its layer's node: the graph has no relu node and
    # owns one activation array per layer (fc1, fc2); reshapes are views.  The
    # pairwise layers run with the encoder, the edge head and the gate as one
    # ad.edge_matrix, whose two (…, N, d) and two (…, N * N, h) activations
    # stay inside the node: the graph owns none
    rng = np.random.default_rng(0)
    mlp = m.TwoLayerMlp("edge", 6 if pairwise else 3, 7, rng, batchnorm=False)
    x = Tensor(rng.normal(size=(2, 5, 3)))
    if pairwise:
        enc, head = m.TwoLayerMlp("enc", 3, 3, rng, batchnorm=False), m.Linear("edge_head", 7, 2, rng)
        weights = enc.parameters() + mlp.parameters() + head.parameters()
        out = ad.edge_matrix(x, *(p.tensor for p in weights), 1.0, 1.0)
        assert out.shape == (2, 5, 5)
        assert len(ad._topo_order(out)) == 1 + len(weights) + 1  # x, the weights and the node
    else:
        out = mlp.forward(x, training=True)
        assert out.shape == (2, 5, 7)
    nodes = ad._topo_order(out)
    ops = {node._backward_fn.__qualname__.split(".")[0] for node in nodes if node._backward_fn}
    assert "relu" not in ops
    activation = (2, 25, 7) if pairwise else out.shape
    owned = [node for node in nodes if node.data.base is None and node.data.size == np.prod(activation)]
    assert len(owned) == (0 if pairwise else 2)


def dynamic_classify_step_peak(n: int, windows: int, frames: int, hidden: int) -> float:
    """Traced peak of one dynamic-GNN classify step, forward and backward,
    over ``windows`` x ``frames`` frames of ``n`` neurons, in (frames, N, N)
    arrays."""
    model = m.NeuralModel(gnn_config(n=n, hidden=hidden, edge_mode=m.EdgeMode.DYNAMIC), master_seed=0)
    rng = np.random.default_rng(0)
    feats = Tensor(rng.normal(size=(windows, frames, n, 2)))
    targets = rng.integers(0, 2, size=(windows, frames))
    tracemalloc.start()
    try:
        tr.nll_loss(model.classify_logits(feats, training=True), targets).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.named_parameters()["edge.fc1.weight"].tensor.grad is not None
    return peak / (windows * frames * n * n * 8)


def test_dynamic_edge_training_step_peak_memory():
    # one dynamic-GNN classify step over 80 windows x 8 frames of 15 neurons
    # at hidden 16: ad.edge_message runs the encoder, the edge block, the
    # gate and the message pass in frame chunks and keeps no (frames, N, N)
    # or (frames, N, h) array, so the step peaks at 2.57 (frames, N, N)
    # arrays; with the encoder as two linear nodes outside it the step peaked
    # at 6.96 (its fc2 backward), the edges and messages as three nodes at
    # 14.7, the composed edge ops at 92
    peak = dynamic_classify_step_peak(15, 80, 8, 16)
    assert peak <= 3.0, f"peak {peak:.2f} (frames, N, N) arrays"


def test_large_n_dynamic_edge_training_step_peak_memory():
    # at 120 neurons a (frames, N, N) array outweighs every (frames, N, h)
    # one: a classify step over 40 windows x 2 frames at hidden 8 peaks at
    # 1.27 such arrays, most of them the reused chunk buffers of the pair
    # activations (1.46 with the encoder outside the edge node); the edges
    # and messages as three nodes peaked at 12.3
    peak = dynamic_classify_step_peak(120, 40, 2, 8)
    assert peak <= 2.0, f"peak {peak:.2f} (frames, N, N) arrays"


@pytest.mark.parametrize("task, recurrent", [(m.Task.PREDICT, False), (m.Task.PREDICT, True),
                                             (m.Task.CLASSIFY, False)],
                         ids=["predict", "predict-recurrent", "classify"])
def test_dynamic_training_step_is_bit_equal_to_composed_edges(monkeypatch, task, recurrent):
    # _stages runs dynamic edges as one ad.edge_message node where the
    # encoder's two layers, the edge block, the gate and a matmul were five.
    # In a predict step each input frame has three consumers (the residual
    # add, the message pass and the encoder), whose gradients backward sums
    # in reverse topological order, the node's two in the order of its
    # parents: the loss and every parameter gradient of a scheduled-sampling
    # step are byte-equal to the composed path's
    cfg = gnn_config(task, n=5, hidden=6, edge_mode=m.EdgeMode.DYNAMIC, recurrent=recurrent,
                     include_self_edges=False, softmax_temperature=0.7)

    def step():
        model = m.NeuralModel(cfg, master_seed=4)
        rng = np.random.default_rng(11)
        if task is m.Task.PREDICT:
            teacher = rng.normal(size=(12, 6, 5, 2))
            preds = m.rollout_batch(model, teacher, 5, sampling_prob=0.5, rng=rng, training=True)
            loss = tr.mse_loss(preds, teacher[:, 1:])
        else:
            feats = Tensor(rng.normal(size=(12, 6, 5, 2)))
            loss = tr.nll_loss(model.classify_logits(feats, training=True), rng.integers(0, 2, size=(12, 6)))
        loss.backward()
        return [loss.data.tobytes()] + [p.tensor.grad.tobytes() for p in model.parameters()]

    fused = step()
    calls = []
    monkeypatch.setattr(ad, "edge_message", lambda *args: calls.append(1) or composed_edge_message(*args))
    assert step() == fused
    assert calls


def test_encode_edges_of_no_frames_is_an_error():
    # no frame gives no dynamic edges and nothing to average static ones over
    for mode in INFERRED_MODES:
        model = m.NeuralModel(gnn_config(n=3, edge_mode=mode), master_seed=0)
        with pytest.raises(ValueError, match=r"features: expected at least one frame, got shape \(0, 3, 2\)"):
            m.encode_edges(np.zeros((0, 3, 2)), model)


TRAINING_STEPS = [
    # task, model kind, options, the fused nodes that record a graph in a training step
    ("classify", "mlp", {}, {"batch_norm"}),
    ("classify", "mlp", {"recurrent": True}, {"batch_norm"}),
    ("classify", "node_mlp", {}, {"neuron_mlp"}),
    ("classify", "linear", {}, set()),
    ("classify", "gnn", {"edge_mode": "dynamic"}, {"edge_message", "batch_norm"}),
    ("classify", "gnn", {"edge_mode": "dynamic", "recurrent": True}, {"edge_message", "batch_norm"}),
    ("classify", "gnn", {"edge_mode": "static"}, {"edge_matrix", "batch_norm"}),
    ("classify", "gnn", {"edge_mode": "one_hot"}, {"edge_matrix", "batch_norm"}),
    ("classify", "gnn", {"edge_mode": "connectome"}, {"batch_norm"}),
    ("predict", "mlp", {}, set()),
    ("predict", "mlp", {"recurrent": True}, set()),
    ("predict", "node_mlp", {}, set()),
    ("predict", "node_mlp", {"recurrent": True}, set()),
    ("predict", "gnn", {"edge_mode": "dynamic"}, {"edge_message"}),
    ("predict", "gnn", {"edge_mode": "dynamic", "recurrent": True}, {"edge_message"}),
    ("predict", "gnn", {"edge_mode": "static"}, {"edge_matrix"}),
    ("predict", "gnn", {"edge_mode": "one_hot"}, {"edge_matrix"}),
    ("predict", "gnn", {"edge_mode": "connectome"}, set()),
]


@pytest.mark.parametrize("task, kind, options, nodes", TRAINING_STEPS,
                         ids=["-".join([task, kind, *(v if isinstance(v, str) else k for k, v in options.items())])
                              for task, kind, options, _ in TRAINING_STEPS])
def test_training_step_hands_fused_nodes_no_constant_weight(monkeypatch, task, kind, options, nodes):
    # the fused nodes differentiate every weight and skip only a constant
    # input: a training step (scheduled sampling and burn-in when predicting)
    # of every model kind, task and edge mode gives each such node that
    # records a graph operands that all require a gradient but the first
    recorded = []
    for name in ("edge_matrix", "edge_message", "neuron_mlp", "batch_norm"):
        def watched(*operands, node=getattr(ad, name), name=name, **kwargs):
            result = node(*operands, **kwargs)
            if (result[0] if isinstance(result, tuple) else result)._parents:
                recorded.append((name, [t.requires_grad for t in operands[1:] if isinstance(t, Tensor)]))
            return result

        monkeypatch.setattr(ad, name, watched)
    model = m.NeuralModel(m.ModelConfig(module_kind=kind, task=task, n_neurons=4, hidden_dim=6, **options),
                          master_seed=0)
    if model.config.edge_mode is m.EdgeMode.CONNECTOME:
        model.set_connectome(np.abs(np.sin(np.arange(16.0))).reshape(4, 4))
    rng = np.random.default_rng(0)
    windows = rng.normal(size=(3, 6, 4, 2))
    cfg = tr.TrainConfig(window_len=6, burn_in=2 if options.get("recurrent") and task == "predict" else 0)
    tr._worm_loss(model, SimpleNamespace(features=windows), windows, rng.integers(0, 2, size=(3, 6)), cfg,
                  task == "predict", training=True, sampling=0.5, rng=rng).backward()
    assert {name for name, _ in recorded} == nodes
    assert all(all(needs) for _, needs in recorded), recorded


def test_static_edge_training_step_peak_memory():
    # one static-GNN classify step whose edges come from an 800-frame
    # recording: ad.edge_matrix runs the encoder over it in frame chunks and
    # pairs the (N, h) mean embeddings once, so the step peaks at 1.59
    # (800, N, h) encoder activations; the bound fails (1.68) when the pair
    # pass's buffers live on through the backward's encoder pass
    cfg = gnn_config(n=15, hidden=16, edge_mode=m.EdgeMode.STATIC)
    model = m.NeuralModel(cfg, master_seed=0)
    rng = np.random.default_rng(0)
    feats = Tensor(rng.normal(size=(80, 8, 15, 2)))
    recording = Tensor(rng.normal(size=(800, 15, 2)))
    targets = rng.integers(0, 2, size=(80, 8))
    activation = 800 * 15 * 16 * 8  # bytes
    tracemalloc.start()
    try:
        tr.nll_loss(model.classify_logits(feats, training=True, edge_feats=recording), targets).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.named_parameters()["enc.fc1.weight"].tensor.grad is not None
    assert peak <= 1.65 * activation, f"peak {peak / activation:.2f} encoder activations"


def test_dynamic_rollout_step_graph_owns_no_edge_array():
    # the edge block, the gate and the message pass are one ad.edge_message
    # node, which keeps only its operands and its (B, N, 2) output: a predict
    # step's graph owns no (B, N, N) edge array; gate and message pass as two
    # nodes owned one, and gate, mask and self edges as three nodes owned three
    model = m.NeuralModel(gnn_config(m.Task.PREDICT, n=5, hidden=8, edge_mode=m.EdgeMode.DYNAMIC),
                          master_seed=0)
    teacher = np.random.default_rng(1).normal(size=(6, 2, 5, 2))
    preds = m.rollout_batch(model, teacher, 1, training=True)
    nodes = ad._topo_order(preds)
    assert [node.shape for node in nodes if node.data.size == 6 * 5 * 5] == []
    assert any(node._backward_fn is not None and node._backward_fn.__qualname__.startswith("_edge_node")
               for node in nodes)


def gnn_predictor(mode, recurrent=False, n=5, hidden=8):
    model = m.NeuralModel(gnn_config(m.Task.PREDICT, n=n, hidden=hidden, edge_mode=mode, recurrent=recurrent),
                          master_seed=3)
    if mode is m.EdgeMode.CONNECTOME:
        model.set_connectome(np.abs(np.sin(np.arange(n * n + 0.0))).reshape(n, n))
    return model


@pytest.mark.parametrize("recurrent", [False, True], ids=["plain", "recurrent"])
@pytest.mark.parametrize("mode", list(m.EdgeMode), ids=lambda mode: mode.value)
def test_gnn_predict_step_is_byte_equal_with_the_composed_decoder(monkeypatch, mode, recurrent):
    # a scheduled-sampling training step (burn-in for the recurrent stage)
    # gives the same loss and parameter gradients, byte for byte, with the
    # decoder's node swapped for linear(relu=True) twice and linear
    def step():
        model = gnn_predictor(mode, recurrent)
        rng = np.random.default_rng(0)
        windows = rng.normal(size=(6, 8, 5, 2))
        cfg = tr.TrainConfig(window_len=8, burn_in=2 if recurrent else 0)
        loss = tr._worm_loss(model, SimpleNamespace(features=windows), windows, None, cfg, True,
                             training=True, sampling=0.5, rng=rng)
        nodes = ad._topo_order(loss)
        loss.backward()
        decoders = sum(node._backward_fn is not None and node._backward_fn.__qualname__.startswith("node_decoder")
                       for node in nodes)
        return decoders, [loss.data.tobytes()] + [p.tensor.grad.tobytes() for p in model.parameters()]

    decoders, fused = step()
    monkeypatch.setattr(ad, "node_decoder", composed_node_decoder)
    assert decoders == (5 if recurrent else 7) and step() == (0, fused)  # one node per step after burn-in


@pytest.mark.parametrize("mode", list(m.EdgeMode), ids=lambda mode: mode.value)
def test_gnn_predict_step_graph_owns_no_hidden_array(mode):
    # the shared decoder is one ad.node_decoder node, which keeps only its
    # operands and its (B, N, 2) output: no node of a rollout's graph but a
    # weight has an axis of the hidden size; as two linear(relu=True) nodes
    # the decoder owned two (B, N, h) activations per step
    model = gnn_predictor(mode, hidden=11)
    teacher = np.random.default_rng(1).normal(size=(6, 4, 5, 2))
    preds = m.rollout_batch(model, teacher, 3, sampling_prob=0.5, rng=np.random.default_rng(2), training=True)
    weights = {id(p.tensor) for p in model.parameters()}
    assert [node.shape for node in ad._topo_order(preds) if 11 in node.shape and id(node) not in weights] == []


def node_mlp_predictor(recurrent=False, hidden=8):
    return m.NeuralModel(m.ModelConfig(module_kind="node_mlp", task="predict", n_neurons=5, hidden_dim=hidden,
                                       recurrent=recurrent), master_seed=3)


@pytest.mark.parametrize("burn_in", [0, 2])
@pytest.mark.parametrize("recurrent", [False, True], ids=["plain", "recurrent"])
def test_node_mlp_predict_step_is_byte_equal_with_the_composed_decoder(monkeypatch, recurrent, burn_in):
    # a scheduled-sampling training step gives the same loss and parameter
    # gradients, and a no_grad rollout the same predictions, byte for byte,
    # with the per-neuron decoder's node swapped for three per-neuron linear
    # layers (reshape, swapaxes, linear, swapaxes, reshape)
    def step():
        model = node_mlp_predictor(recurrent)
        rng = np.random.default_rng(0)
        windows = rng.normal(size=(6, 8, 5, 2))
        cfg = tr.TrainConfig(window_len=8, burn_in=burn_in)
        loss = tr._worm_loss(model, SimpleNamespace(features=windows), windows, None, cfg, True,
                             training=True, sampling=0.5, rng=rng)
        nodes = ad._topo_order(loss)
        loss.backward()
        decoders = sum(node._backward_fn is not None and node._backward_fn.__qualname__.startswith("node_decoder")
                       for node in nodes)
        with ad.no_grad():
            rollout = m.rollout_batch(model, rng.normal(size=(3, burn_in + 4, 5, 2)), 4, burn_in=burn_in)
        return decoders, [loss.data.tobytes(), rollout.data.tobytes()] + [p.tensor.grad.tobytes()
                                                                         for p in model.parameters()]

    decoders, fused = step()
    monkeypatch.setattr(ad, "node_decoder", composed_node_decoder)
    assert decoders == 7 - burn_in and step() == (0, fused)  # one node per step after burn-in


def test_node_mlp_predict_step_graph_owns_no_hidden_array():
    # node_mlp's decoder is one ad.node_decoder node, which keeps only its
    # operands and its (B, N, 2) output: no node of a rollout's graph but a
    # weight has an axis of the hidden size; neuron_mlp and the per-neuron
    # head left neuron_mlp's (B, N, h) output in it per step
    model = node_mlp_predictor(hidden=11)
    teacher = np.random.default_rng(1).normal(size=(6, 4, 5, 2))
    preds = m.rollout_batch(model, teacher, 3, sampling_prob=0.5, rng=np.random.default_rng(2), training=True)
    weights = {id(p.tensor) for p in model.parameters()}
    assert [node.shape for node in ad._topo_order(preds) if 11 in node.shape and id(node) not in weights] == []


def predict_step_peak(steps: int, kind: str = "gnn") -> int:
    """Traced peak bytes of one dynamic-GNN (or node_mlp) predict training
    step (a scheduled-sampling rollout of ``steps`` steps over 80 windows of
    15 neurons at hidden 16, its loss and backward)."""
    model = m.NeuralModel(gnn_config(m.Task.PREDICT, n=15, hidden=16, edge_mode=m.EdgeMode.DYNAMIC) if kind == "gnn"
                          else node_mlp_config("predict", n=15, hidden=16), master_seed=0)
    rng = np.random.default_rng(0)
    teacher = rng.normal(size=(80, steps + 1, 15, 2))
    tracemalloc.start()
    try:
        preds = m.rollout_batch(model, teacher, steps, sampling_prob=0.5, rng=rng, training=True)
        tr.mse_loss(preds, teacher[:, 1:]).backward()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_rollout_peak_memory_grows_by_less_than_a_pair_array_per_step():
    # each rollout step encodes its frame and passes its messages over its
    # edges with one edge_message, which keeps no (windows, N, h) embedding,
    # no (windows, N * N, h) activation and no (windows, N, N) edges until
    # backward: a step adds only its decoder's node-sized activations to the
    # graph, 0.22 pair arrays; with the encoder's two activations it added
    # 0.35, with its (windows, N, N) edges in the graph 0.54, and an edge
    # block holding its two activations nearly three
    pair_array = 80 * 15 * 15 * 16 * 8  # bytes
    growth = (predict_step_peak(7) - predict_step_peak(3)) / 4
    assert growth < 0.3 * pair_array, f"{growth / pair_array:.2f} pair arrays per step"


def test_predict_rollout_peak_memory_grows_by_under_an_eighth_pair_array_per_step():
    # with the decoder one ad.node_decoder node, a step leaves only (windows,
    # N, 2) arrays in the graph: 0.091 pair arrays per step, where the
    # decoder's two (windows, N, h) activations as linear nodes made it 0.225
    pair_array = 80 * 15 * 15 * 16 * 8  # bytes
    growth = (predict_step_peak(7) - predict_step_peak(3)) / 4
    assert growth < 0.12 * pair_array, f"{growth / pair_array:.3f} pair arrays per step"


def test_node_mlp_predict_peak_memory_grows_by_under_one_and_a_half_node_arrays_per_step():
    # with the per-neuron decoder one ad.node_decoder node, a step leaves only
    # (windows, N, 2) arrays in the graph: 1.17 (windows, N, h) arrays per
    # step, where neuron_mlp's output and the per-neuron head's nodes made it
    # 2.19
    node_array = 80 * 15 * 16 * 8  # bytes
    growth = (predict_step_peak(7, "node_mlp") - predict_step_peak(3, "node_mlp")) / 4
    assert growth < 1.5 * node_array, f"{growth / node_array:.2f} (windows, N, h) arrays per step"


def test_no_grad_edge_weights_peak_under_one_pair_array():
    # the forward runs the pair layers in chunks: inferring the edges of 100
    # windows x 8 frames of 15 neurons at hidden 16 allocates no pair array
    model = m.NeuralModel(gnn_config(n=15, hidden=16, edge_mode=m.EdgeMode.DYNAMIC), master_seed=0)
    feats = Tensor(np.random.default_rng(0).normal(size=(100, 8, 15, 2)))
    pair_array = 100 * 8 * 15 * 15 * 16 * 8  # bytes
    tracemalloc.start()
    try:
        with ad.no_grad():
            w = model.edge_weights(feats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.shape == (100, 8, 15, 15)
    assert peak < pair_array, f"peak {peak / pair_array:.2f} pair arrays"


def test_edge_weights_in_unit_interval_and_normalized():
    model = m.NeuralModel(gnn_config(), master_seed=3)
    rng = np.random.default_rng(0)
    off_diag = ~np.eye(4, dtype=bool)
    for _ in range(20):
        frames = rng.uniform(size=(6, 4, 2))
        w = m.encode_edges(frames, model)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        assert np.array_equal(np.diag(w), np.ones(4))  # self edges enabled
        # recompute both softmax components: they must sum to one
        feats = Tensor(frames[None])
        hidden = model.encoder.forward(feats, training=False).mean(axis=(0, 1))
        logits = concat_pair_logits(model, ad.reshape(hidden, (1, 4, hidden.shape[-1])))
        probs = ad.softmax(logits, axis=-1, temperature=model.edge_temperature()).data
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
        assert np.allclose(probs[0, :, 1].reshape(4, 4)[off_diag], w[off_diag], atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(perm=st.permutations(list(range(5))), seed=st.integers(0, 2**16),
       mode=st.sampled_from(INFERRED_MODES))
def test_edge_weights_permutation_equivariant(perm, seed, mode):
    # relabelling neurons relabels the inferred graph: edges(P x) = P A P^T
    p = np.array(perm)
    model = m.NeuralModel(gnn_config(n=5, edge_mode=mode), master_seed=seed % 5)
    feats = np.random.default_rng(seed).normal(size=(2, 3, 5, 2))
    a = model.edge_weights(Tensor(feats)).data
    a_perm = model.edge_weights(Tensor(feats[..., p, :])).data
    assert np.allclose(a_perm, a[..., p, :][..., :, p], rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), mode=st.sampled_from([m.EdgeMode.STATIC, m.EdgeMode.ONE_HOT]))
def test_static_edges_ignore_window_and_frame_order(seed, mode):
    rng = np.random.default_rng(seed)
    model = m.NeuralModel(gnn_config(n=5, edge_mode=mode), master_seed=seed % 5)
    feats = rng.normal(size=(3, 4, 5, 2))
    shuffled = feats.reshape(12, 5, 2)[rng.permutation(12)].reshape(3, 4, 5, 2)
    a = model.edge_weights(Tensor(feats)).data
    a_shuffled = model.edge_weights(Tensor(shuffled)).data
    assert np.allclose(a_shuffled, a, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(INFERRED_MODES + [m.EdgeMode.CONNECTOME]), self_edges=st.booleans(),
       seed=st.integers(0, 2**16), batch=st.integers(1, 3), width=st.integers(1, 4),
       n=st.integers(1, 5))
def test_adjacency_broadcasts_and_message_pass_is_brute_force(mode, self_edges, seed, batch,
                                                              width, n):
    # one adjacency per edge mode serves a (B, W, N, 2) stack and a (B, N, 2) frame alike
    rng = np.random.default_rng(seed)
    model = m.NeuralModel(gnn_config(n=n, edge_mode=mode, include_self_edges=self_edges),
                          master_seed=seed % 7)
    if mode is m.EdgeMode.CONNECTOME:
        model.set_connectome(rng.uniform(size=(n, n)))
    for shape in ((batch, width, n, 2), (batch, n, 2)):
        x = rng.normal(size=shape)
        a = model.adjacency(Tensor(x))
        lead = {m.EdgeMode.DYNAMIC: shape[:-2], m.EdgeMode.CONNECTOME: ()}.get(mode, (1,))
        assert a.shape == lead + (n, n)
        h = m.message_pass(a, Tensor(x)).data
        assert h.shape == shape
        full = np.broadcast_to(a.data, shape[:-2] + (n, n))
        for idx in np.ndindex(shape[:-2]):
            assert np.allclose(h[idx], brute_force_messages(full[idx], x[idx]), rtol=0, atol=1e-12)


def test_static_mode_single_matrix_dynamic_per_timestep():
    frames = np.random.default_rng(1).uniform(size=(6, 4, 2))
    static = m.NeuralModel(gnn_config(edge_mode=m.EdgeMode.STATIC), master_seed=0)
    adj = m.encode_edges(frames, static)
    assert isinstance(adj, np.ndarray) and adj.shape == (4, 4)

    dynamic = m.NeuralModel(gnn_config(edge_mode=m.EdgeMode.DYNAMIC), master_seed=0)
    adjs = m.encode_edges(frames, dynamic)
    assert adjs.shape == (6, 4, 4)
    # matrix t is the edges of frame t alone
    assert np.array_equal(adjs[5], m.encode_edges(frames[5], dynamic)[0])
    assert not np.allclose(adjs[0], adjs[1])


def test_dynamic_edges_chunked_equal_whole_stack(monkeypatch):
    # one encode_edges call runs ad.edge_matrix in frame chunks: in chunks of
    # 7 frames (the last one 3) it equals one chunk over every frame
    model = m.NeuralModel(gnn_config(edge_mode=m.EdgeMode.DYNAMIC), master_seed=2)
    frames = np.random.default_rng(3).normal(size=(73, 4, 2))
    edges = []
    for chunk_frames in (7, 73):
        monkeypatch.setattr(ad, "EDGE_CHUNK_ENTRIES", chunk_frames * 4 * 4 * 8)
        edges.append(m.encode_edges(frames, model))
    chunked, whole = edges
    assert chunked.shape == (73, 4, 4)
    assert np.array_equal(chunked, whole)
    assert np.array_equal(chunked[40], m.encode_edges(frames[40], model)[0])


@pytest.mark.parametrize("n, frames", [(60, 800), (15, 3200)], ids=["60x800", "15x3200"])
def test_dynamic_edge_dump_peak_memory(n, frames):
    # encode_edges at hidden 16 holds the returned (T, N, N) edges and the
    # edge node's chunk buffers (its two pair activations, each a chunk and a
    # spare row, and the encoder's), 24.05 MiB at 60 neurons x 800 frames and
    # 6.89 at 15 x 3200.  With the encoder's two (T, N, h) activations
    # outside the node they peaked at 29.9 and 12.7 MiB, and inferring 256
    # frames at a time and concatenating at 59 MiB (60 x 800)
    model = m.NeuralModel(gnn_config(n=n, hidden=16, edge_mode=m.EdgeMode.DYNAMIC), master_seed=0)
    recording = np.random.default_rng(0).normal(size=(frames, n, 2))
    bound = (frames * n * n + 5 * ad.EDGE_CHUNK_ENTRIES) * 8  # bytes
    tracemalloc.start()
    try:
        edges = m.encode_edges(recording, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edges.shape == (frames, n, n)
    assert peak <= bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_one_hot_mode_saturates_more_than_unit_temperature():
    frames = np.random.default_rng(5).uniform(size=(8, 5, 2))
    plain = m.NeuralModel(gnn_config(n=5, edge_mode=m.EdgeMode.STATIC), master_seed=2)
    onehot = m.NeuralModel(gnn_config(n=5, edge_mode=m.EdgeMode.ONE_HOT), master_seed=2)
    w_plain = m.encode_edges(frames, plain)
    w_hot = m.encode_edges(frames, onehot)
    assert np.abs(w_hot - 0.5).mean() > np.abs(w_plain - 0.5).mean()
    assert np.all(w_hot >= 0) and np.all(w_hot <= 1)


def test_no_self_edges_zero_diagonal():
    model = m.NeuralModel(gnn_config(include_self_edges=False), master_seed=1)
    frames = np.random.default_rng(2).uniform(size=(6, 4, 2))
    adj = m.encode_edges(frames, model)
    assert np.array_equal(np.diag(adj), np.zeros(4))


def test_connectome_mode_rejected_by_encoder():
    model = m.NeuralModel(gnn_config(edge_mode=m.EdgeMode.CONNECTOME), master_seed=0)
    with pytest.raises(ValueError, match="connectome"):
        m.encode_edges(np.random.default_rng(0).uniform(size=(6, 4, 2)), model)


# -- connectome file -----------------------------------------------------------

def test_connectome_empty(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("")
    adj = m.load_connectome_edges(path, ["A", "B"], include_self_edges=True)
    assert np.array_equal(adj, np.eye(2))
    adj2 = m.load_connectome_edges(path, ["A", "B"], include_self_edges=False)
    assert np.array_equal(adj2, np.zeros((2, 2)))


def test_connectome_row_max_normalization(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b 2.0\n")
    adj = m.load_connectome_edges(path, ["a", "b"], include_self_edges=False)
    assert adj[0, 1] == 1.0
    assert adj[1, 0] == 0.0


def test_connectome_drops_outside_neurons(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b 1.0\nzz a 5.0\nb zz 4.0\n")
    adj = m.load_connectome_edges(path, ["a", "b"], include_self_edges=False)
    assert adj[0, 1] == 1.0
    assert adj.sum() == 1.0


# -- module forwards -----------------------------------------------------------

def test_mlp_forward_shape_and_zero_case():
    model = m.NeuralModel(mlp_config(), master_seed=0)
    logits = model.classify_logits(Tensor(np.zeros((1, 1, 4, 2))), training=False)
    assert logits.shape == (1, 1, 2)
    # zero input with zero biases: pre-activation output of the trunk is zero,
    # so the ReLU chain stays zero, batch norm shifts by beta (zero here) and
    # the head adds its zero bias
    assert np.allclose(logits.data, 0.0)


def test_mlp_forward_neuron_count_mismatch():
    model = m.NeuralModel(mlp_config(), master_seed=0)
    with pytest.raises(ValueError, match=r"expected \(B, W, 4, 2\)"):
        model.classify_logits(Tensor(np.zeros((1, 1, 5, 2))), training=False)
    predictor = m.NeuralModel(mlp_config(task=m.Task.PREDICT), master_seed=0)
    with pytest.raises(ValueError, match=r"expected \(B, 4, 2\)"):
        predictor.predict_residual(Tensor(np.zeros((1, 5, 2))), training=False)


def test_mlp_concatenation_is_order_sensitive():
    model = m.NeuralModel(mlp_config(n=5), master_seed=4)
    rng = np.random.default_rng(0)
    feats = rng.uniform(size=(1, 1, 5, 2))
    base = model.classify_logits(Tensor(feats), training=False).data
    permuted = model.classify_logits(Tensor(feats[:, :, [1, 0, 2, 4, 3]]), training=False).data
    assert not np.allclose(base, permuted)


def test_sum_aggregation_option():
    rng = np.random.default_rng(0)
    feats = rng.uniform(size=(2, 3, 5, 2))
    for kind in (m.ModuleKind.MLP, m.ModuleKind.LINEAR):
        cfg = m.ModelConfig(module_kind=kind, task=m.Task.CLASSIFY, n_neurons=5,
                            n_states=2, hidden_dim=8, aggregation=m.Aggregation.SUM)
        model = m.NeuralModel(cfg, master_seed=0)
        logits = model.classify_logits(Tensor(feats), training=False)
        assert logits.shape == (2, 3, 2)
        # summing makes the aggregation order-insensitive, unlike concatenation
        permuted = feats[:, :, [3, 1, 4, 0, 2], :]
        logits_p = model.classify_logits(Tensor(permuted), training=False)
        assert np.allclose(logits.data, logits_p.data, atol=1e-12)


@pytest.mark.parametrize("kind,task,recurrent", [
    ("linear", "predict", False),
    ("linear", "classify", True),
    ("node_mlp", "classify", True),
])
def test_config_rejects_unsupported_combinations(kind, task, recurrent):
    with pytest.raises(ValueError, match=f"module_kind={kind} with task={task}, recurrent={recurrent}"):
        m.ModelConfig(module_kind=kind, task=task, n_neurons=3, recurrent=recurrent)


def connectome_gnn(adjacency, task=m.Task.CLASSIFY, n=4, hidden=8, master_seed=0):
    """A GNN that passes messages over a given adjacency."""
    model = m.NeuralModel(gnn_config(task=task, n=n, hidden=hidden,
                                     edge_mode=m.EdgeMode.CONNECTOME), master_seed=master_seed)
    model.set_connectome(adjacency)
    return model


def test_gnn_forward_shapes():
    feats = np.random.default_rng(0).uniform(size=(3, 5, 4, 2))
    clf = connectome_gnn(np.eye(4))
    assert clf.classify_logits(Tensor(feats), training=False).shape == (3, 5, 2)

    pred = connectome_gnn(np.eye(4), task=m.Task.PREDICT)
    residual, state = pred.predict_residual(Tensor(feats[:, 0]), training=False)
    assert residual.shape == (3, 4, 2) and state is None
    frame = Tensor(feats[:, 0])
    given, _ = pred.predict_residual(frame, training=False, adjacency=Tensor(np.eye(4)[None]))
    assert np.array_equal(given.data, residual.data)


def test_gnn_zero_adjacency_zero_bias_output():
    model = connectome_gnn(np.zeros((4, 4)))
    feats = np.random.default_rng(3).uniform(size=(2, 3, 4, 2))
    logits = model.classify_logits(Tensor(feats), training=False)
    # zero messages through zero-bias layers: identically zero pre-activations
    assert np.allclose(logits.data, 0.0)


def test_identity_adjacency_reduces_gnn_to_mlp():
    gnn = connectome_gnn(np.eye(4), master_seed=0)
    mlp = m.NeuralModel(mlp_config(n=4, hidden=8), master_seed=9)
    # copy the trunk and head weights between the two models
    gnn_params = gnn.named_parameters()
    for name, p in mlp.named_parameters().items():
        p.data = gnn_params[name].data.copy()
    feats = Tensor(np.random.default_rng(1).uniform(size=(2, 3, 4, 2)))
    assert np.allclose(
        gnn.classify_logits(feats, training=False).data,
        mlp.classify_logits(feats, training=False).data,
        atol=1e-12,
    )


# -- classify / predict heads ---------------------------------------------------

def linear_classifier(bias, weight=None, n=2):
    """A LINEAR classifier with the given head; its logits are x @ weight + bias."""
    model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.LINEAR, task=m.Task.CLASSIFY,
                                        n_neurons=n, n_states=len(bias)), master_seed=0)
    model.head.weight.data = np.zeros((2 * n, len(bias))) if weight is None else weight
    model.head.bias.data = np.asarray(bias, dtype=np.float64)
    return model


def worm_of(feats):
    """A PreparedWorm holding the (B, W, N, 2) windows ``feats``."""
    b, w = feats.shape[:2]
    return tr.PreparedWorm("w", feats, np.zeros((b, w), dtype=np.intp), np.zeros(b, dtype=np.intp),
                           None)


def test_classify_argmax():
    feats = np.random.default_rng(0).normal(size=(3, 4, 2, 2))
    model = linear_classifier([0.0, 2.0, 1.0])
    assert np.array_equal(tr.predict_classes(model, worm_of(feats)), np.ones(12, dtype=np.intp))

    model = linear_classifier([0.0, 0.0, 0.0], np.random.default_rng(1).normal(size=(4, 3)))
    worm = worm_of(feats)
    logits = model.classify_logits(Tensor(feats), training=False).data
    expected = np.argmax(logits, axis=-1).reshape(-1)
    assert len(set(expected)) > 1
    assert np.array_equal(tr.predict_classes(model, worm), expected)
    # the windows of a fold are a slice of the whole worm's classes
    mask = np.array([True, False, True])
    masked = model.classify_logits(Tensor(feats[mask]), training=False).data
    assert np.array_equal(tr.predict_classes(model, worm).reshape(3, 4)[mask],
                          np.argmax(masked, axis=-1))


def test_classify_tie_breaks_low_index():
    worm = worm_of(np.random.default_rng(0).normal(size=(2, 3, 2, 2)))
    # an all-zero model ties every class
    assert np.array_equal(tr.predict_classes(linear_classifier([0.0, 0.0, 0.0]), worm),
                          np.zeros(6, dtype=np.intp))
    assert np.array_equal(tr.predict_classes(linear_classifier([0.0, 1.0, 1.0]), worm),
                          np.ones(6, dtype=np.intp))


def test_classify_temperature_and_shift_invariance():
    rng = np.random.default_rng(0)
    worm = worm_of(rng.normal(size=(3, 4, 2, 2)))
    weight, bias = rng.normal(size=(4, 2)), np.array([0.3, -1.2])
    base = tr.predict_classes(linear_classifier(bias, weight), worm)
    # shifting every logit, or dividing them by a temperature, keeps the argmax
    shifted = tr.predict_classes(linear_classifier(bias + 5.0, weight), worm)
    tempered = tr.predict_classes(linear_classifier(bias / 0.25, weight / 0.25), worm)
    assert np.array_equal(base, shifted) and np.array_equal(base, tempered)


def test_predict_step_zero_residual_is_identity():
    stub = ConstantResidualModel(n_neurons=3)
    x = np.random.default_rng(0).uniform(size=(1, 1, 3, 2))
    preds = m.rollout_batch(stub, x, steps=1)
    assert np.array_equal(preds.data, x)


def test_predict_step_output_shape():
    model = m.NeuralModel(mlp_config(task=m.Task.PREDICT), master_seed=0)
    x = np.random.default_rng(0).uniform(size=(3, 4, 2))
    residual, _ = model.predict_residual(Tensor(x), training=False)
    assert residual.shape == (3, 4, 2)
    preds = m.rollout_batch(model, x[:, None], steps=1)
    assert np.array_equal(preds.data[:, 0], x + residual.data)


# -- rollout ---------------------------------------------------------------------

def test_rollout_returns_requested_frames():
    model = m.NeuralModel(mlp_config(task=m.Task.PREDICT), master_seed=0)
    x0 = np.random.default_rng(0).uniform(size=(2, 1, 4, 2))
    preds = m.rollout_batch(model, x0, 16)
    assert preds.shape == (2, 16, 4, 2)


def test_rollout_pure_teacher_forcing():
    stub = ConstantResidualModel(n_neurons=2, residual=np.full((2, 2), 0.25))
    teacher = np.random.default_rng(0).uniform(size=(1, 6, 2, 2))
    preds = m.rollout_batch(stub, teacher, 5, sampling_prob=1.0, rng=np.random.default_rng(1))
    for k in range(5):
        assert np.allclose(preds.data[0, k], teacher[0, k] + 0.25)


def test_rollout_free_running_identity_is_constant():
    stub = ConstantResidualModel(n_neurons=2)
    x0 = np.random.default_rng(0).uniform(size=(1, 1, 2, 2))
    preds = m.rollout_batch(stub, x0, 7, sampling_prob=0.0)
    for k in range(7):
        assert np.array_equal(preds.data[:, k], x0[:, 0])


def test_rollout_teacher_too_short():
    # sampled steps read every teacher frame; without sampling or burn-in a
    # rollout reads only the first
    stub = ConstantResidualModel(n_neurons=2)
    with pytest.raises(ValueError, match="teacher has 3 frames but 8 are needed"):
        m.rollout_batch(stub, np.zeros((1, 3, 2, 2)), 8, sampling_prob=0.5, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="teacher has 0 frames but 1 are needed"):
        m.rollout_batch(stub, np.zeros((2, 0, 2, 2)), 3)


def test_rollout_recurrent_burn_in():
    model = m.NeuralModel(gnn_config(task=m.Task.PREDICT, recurrent=True,
                                     edge_mode=m.EdgeMode.DYNAMIC), master_seed=0)
    teacher = np.random.default_rng(0).uniform(size=(1, 9, 4, 2))
    preds = m.rollout_batch(model, teacher, 5, burn_in=4)
    assert preds.shape == (1, 5, 4, 2)
    with pytest.raises(ValueError, match="teacher"):
        m.rollout_batch(model, teacher[:, :8], 6, burn_in=4)


# -- determinism and checkpoints --------------------------------------------------

def test_forward_deterministic():
    cfg = gnn_config()
    a = m.NeuralModel(cfg, master_seed=5)
    b = m.NeuralModel(cfg, master_seed=5)
    feats = np.random.default_rng(0).uniform(size=(2, 6, 4, 2))
    out_a = a.classify_logits(Tensor(feats), training=False).data
    out_b = b.classify_logits(Tensor(feats), training=False).data
    assert np.array_equal(out_a, out_b)


def test_checkpoint_roundtrip(tmp_path):
    model = m.NeuralModel(gnn_config(task=m.Task.PREDICT, edge_mode=m.EdgeMode.DYNAMIC),
                          master_seed=8)
    path = tmp_path / "model.ckpt"
    m.save_checkpoint(model, path)
    clone = m.load_checkpoint(path)
    teacher = np.random.default_rng(0).uniform(size=(2, 1, 4, 2))
    out_a = m.rollout_batch(model, teacher, 3)
    out_b = m.rollout_batch(clone, teacher, 3)
    assert np.array_equal(out_a.data, out_b.data)

    # byte-stable: saving the clone reproduces the file exactly
    path2 = tmp_path / "model2.ckpt"
    m.save_checkpoint(clone, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="wormgnn-checkpoint"):
        m.load_checkpoint(path)
    path.write_text("junk")
    with pytest.raises(ValueError, match=r"^load_checkpoint: .*x\.json: not valid JSON \(Expecting value"):
        m.load_checkpoint(path)


def node_mlp_config(task="classify", n=4, hidden=6):
    return m.ModelConfig(module_kind="node_mlp", task=task, n_neurons=n, hidden_dim=hidden)


def as_version_1(raw: dict) -> dict:
    """A version-2 checkpoint as version 1 wrote it: each stacked ``node.*``
    array cut into one ``node{i}.*`` array per neuron, biases without the
    neuron axis's broadcast row."""
    raw = {**raw, "version": 1}
    for key in ("parameters", "buffers"):
        entries = []
        for entry in raw[key]:
            if not entry["name"].startswith("node."):
                entries.append(entry)
                continue
            for i, values in enumerate(np.reshape(entry["values"], entry["shape"])):
                shape = values.shape[1:] if entry["name"].endswith(".bias") else values.shape
                entries.append({"name": f"node{i}{entry['name'][4:]}", "shape": list(shape),
                                "values": values.reshape(-1).tolist()})
        raw[key] = entries
    return raw


@pytest.mark.parametrize("task", ["classify", "predict"])
def test_version_1_node_mlp_checkpoint_loads_and_reproduces_outputs(tmp_path, task):
    model = m.NeuralModel(node_mlp_config(task), master_seed=2)
    rng = np.random.default_rng(0)
    for p in model.parameters():  # every parameter, biases and batch-norm scales too, off its init
        p.data = p.data + 0.1 * rng.normal(size=p.data.shape)
    feats = rng.normal(size=(3, 5, 4, 2))
    if task == "classify":
        model.classify_logits(Tensor(feats), training=True)  # running statistics off their init
        assert model.batchnorms()[0].running_var.shape == (4, 6)

    def outputs(net):
        if task == "classify":
            return net.classify_logits(Tensor(feats), training=False).data.tobytes()
        return m.rollout_batch(net, feats, 3).data.tobytes()

    v2, v1, again = (tmp_path / name for name in ("v2.ckpt", "v1.ckpt", "again.ckpt"))
    m.save_checkpoint(model, v2)
    raw = as_version_1(json.loads(v2.read_text()))
    assert "node3.fc1.weight" in {entry["name"] for entry in raw["parameters"]}
    v1.write_text(json.dumps(raw))
    loaded = m.load_checkpoint(v1)
    assert outputs(loaded) == outputs(model)
    # saved again it is the version-2 file, byte for byte
    m.save_checkpoint(loaded, again)
    assert again.read_bytes() == v2.read_bytes()

    # a neuron's array missing leaves that set unstacked, and loading names it
    raw["parameters"] = [entry for entry in raw["parameters"] if entry["name"] != "node3.fc2.bias"]
    v1.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=r"^load_checkpoint: .*: unknown parameter node0\.fc2\.bias"):
        m.load_checkpoint(v1)


def test_version_1_checkpoint_of_another_kind_loads_unchanged(tmp_path):
    model = m.NeuralModel(gnn_config(task=m.Task.PREDICT, edge_mode=m.EdgeMode.DYNAMIC),
                          master_seed=8)
    path = tmp_path / "model.ckpt"
    m.save_checkpoint(model, path)
    path.write_text(json.dumps({**json.loads(path.read_text()), "version": 1}))
    teacher = np.random.default_rng(0).uniform(size=(2, 1, 4, 2))
    assert np.array_equal(m.rollout_batch(m.load_checkpoint(path), teacher, 3).data,
                          m.rollout_batch(model, teacher, 3).data)


# -- the per-node decoder: stacked per-neuron weights --------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.lists(st.integers(1, 4), min_size=1, max_size=3),
       st.integers(1, 6), st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
def test_per_neuron_linear_matches_a_loop_over_neurons(n, lead, in_dim, out_dim, relu, seed):
    # the composed per-neuron layer that the fused per-neuron nodes are
    # checked against, over a per-neuron Linear's parameters: values
    # byte-equal to neuron i's rows, flattened to 2-D, through its own
    # ad.linear; each gradient entry within 1e-12 of the sum of the absolute
    # terms it adds up, as one product sums them in another order
    rng = np.random.default_rng(seed)
    layer = m.Linear("node", in_dim, out_dim, rng, n_neurons=n)
    layer.bias.data = rng.normal(size=layer.bias.data.shape)
    x0 = rng.normal(size=tuple(lead) + (n, in_dim))
    upstream = rng.normal(size=tuple(lead) + (n, out_dim))
    x = ad.tensor(x0, requires_grad=True)
    out = per_neuron_linear(x, layer.weight.tensor, layer.bias.tensor, relu=relu)
    assert out.shape == tuple(lead) + (n, out_dim)
    ad.mul(out, Tensor(upstream)).sum().backward()

    def close(got, want, terms):
        return np.all(np.abs(got - want) <= 1e-12 * terms)

    for i in range(n):
        xi, wi, bi = (ad.tensor(v, requires_grad=True) for v in (
            x0[..., i, :].reshape(-1, in_dim), layer.weight.data[i], layer.bias.data[i, 0]))
        ref = ad.linear(xi, wi, bi, relu=relu)
        ad.mul(ref, Tensor(upstream[..., i, :].reshape(-1, out_dim))).sum().backward()
        assert np.ascontiguousarray(out.data[..., i, :]).tobytes() == ref.data.tobytes()
        g = np.abs(upstream[..., i, :].reshape(-1, out_dim)) * (ref.data > 0 if relu else 1.0)
        assert close(x.grad[..., i, :].reshape(-1, in_dim), xi.grad, g @ np.abs(wi.data.T))
        assert close(layer.weight.tensor.grad[i], wi.grad, np.abs(xi.data.T) @ g)
        assert close(layer.bias.tensor.grad[i, 0], bi.grad, g.sum(axis=0))


@pytest.mark.parametrize("task", ["classify", "predict"])
def test_node_mlp_init_equals_per_neuron_draws(task):
    # from the model-init stream: neuron i's fc1 weight, then its fc2 weight,
    # then neuron i + 1's; then the head, one per neuron when predicting
    n, hidden = 4, 5
    model = m.NeuralModel(node_mlp_config(task, n, hidden), master_seed=7)
    params = {name: p.data for name, p in model.named_parameters().items()}
    rng = derive_rng(7, "model-init", "node_mlp", task)
    for i in range(n):
        assert np.array_equal(params["node.fc1.weight"][i], ad.uniform_init(rng, 2, (2, hidden)))
        assert np.array_equal(params["node.fc2.weight"][i],
                              ad.uniform_init(rng, hidden, (hidden, hidden)))
    if task == "classify":
        assert np.array_equal(params["head.weight"], ad.uniform_init(rng, n * hidden, (n * hidden, 2)))
    else:
        for i in range(n):
            assert np.array_equal(params["node.head.weight"][i], ad.uniform_init(rng, hidden, (hidden, 2)))
    assert all(name.startswith(("node.", "head.")) for name in params)
    assert not any(params[name].any() for name in params if name.endswith(".bias"))


@pytest.mark.parametrize("per", [1, 2, 5])
@pytest.mark.parametrize("task", ["classify", "predict"])
def test_node_mlp_step_is_bit_equal_to_per_neuron_linears_and_batch_norm(monkeypatch, task, per):
    # node_mlp runs its classifier body as one ad.neuron_mlp node and its
    # predictor as one ad.node_decoder node, where per-neuron linear layers
    # and a batch norm were three and three nodes: two training steps'
    # losses, every parameter gradient, the input's, the running statistics
    # and an inference forward are byte-equal to the composed path's, with
    # training passes of 1, 2 and all 5 neurons
    monkeypatch.setattr(ad, "NEURON_PASS_ROWS", per * (24 if task == "classify" else 4))

    def steps():
        model = m.NeuralModel(node_mlp_config(task, n=5, hidden=6), master_seed=3)
        rng = np.random.default_rng(12)
        results = []
        for _ in range(2):
            model.zero_grad()
            if task == "classify":
                feats = Tensor(rng.normal(size=(4, 6, 5, 2)), requires_grad=True)
                loss = tr.nll_loss(model.classify_logits(feats, training=True), rng.integers(0, 2, size=(4, 6)))
            else:
                feats = Tensor(rng.normal(size=(4, 5, 2)), requires_grad=True)
                loss = tr.mse_loss(model.predict_residual(feats, training=True)[0], rng.normal(size=(4, 5, 2)))
            loss.backward()
            results += [loss.data.tobytes(), feats.grad.tobytes()] + [p.tensor.grad.tobytes() for p in model.parameters()]
        results += [v.tobytes() for bn in model.batchnorms() for v in bn.buffers().values()]
        with ad.no_grad():
            frames = rng.normal(size=(3, 6, 5, 2))
            out = (model.classify_logits(Tensor(frames), False) if task == "classify"
                   else model.predict_residual(Tensor(frames[:, 0]), False)[0])
        return results + [out.data.tobytes()]

    fused = steps()
    calls = []
    monkeypatch.setattr(ad, "neuron_mlp", lambda *args, **kw: calls.append(1) or composed_neuron_mlp(*args, **kw))
    monkeypatch.setattr(ad, "node_decoder", lambda *args: calls.append(1) or composed_node_decoder(*args))
    assert steps() == fused
    assert calls


def node_mlp_step_peak(n: int, windows: int, frames: int, hidden: int) -> float:
    """Traced peak of one node_mlp classify step, forward and backward, over
    ``windows`` x ``frames`` frames of ``n`` neurons, in (M, N, h) arrays."""
    model = m.NeuralModel(node_mlp_config(n=n, hidden=hidden), master_seed=0)
    rng = np.random.default_rng(0)
    feats = Tensor(rng.normal(size=(windows, frames, n, 2)))
    targets = rng.integers(0, 2, size=(windows, frames))
    tracemalloc.start()
    try:
        tr.nll_loss(model.classify_logits(feats, training=True), targets).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.named_parameters()["node.fc1.weight"].tensor.grad is not None
    return peak / (windows * frames * n * hidden * 8)


def test_node_mlp_training_step_peak_memory():
    # one node_mlp classify step over 80 windows x 8 frames of 15 neurons at
    # hidden 16: ad.neuron_mlp runs the neurons' layers and batch norm a few
    # at a time (here one, 640 rows) through reused buffers and recomputes
    # them in backward, so the step peaks at 2.53 (M, N, h) arrays (the body's
    # output, its gradient and the head's); per-neuron Linear stacks and a
    # BatchNorm peaked at 8.16
    peak = node_mlp_step_peak(15, 80, 8, 16)
    assert peak <= 3.0, f"peak {peak:.2f} (M, N, h) arrays"


def test_large_n_node_mlp_training_step_peak_memory():
    # the per-neuron cost stays flat in N: at 120 neurons a step over 10
    # windows x 8 frames, six neurons a pass, peaks at 2.74 (M, N, h) arrays
    # (8.3 composed)
    peak = node_mlp_step_peak(120, 10, 8, 16)
    assert peak <= 3.0, f"peak {peak:.2f} (M, N, h) arrays"


def test_node_mlp_step_graph_owns_only_the_body_output():
    # the body's C-ordered (…, N, h) output is the only (M, N, h) array the
    # graph owns, and the head reads it through a view: classify_logits'
    # reshape to (…, N * h) copies nothing
    model = m.NeuralModel(node_mlp_config(n=5, hidden=6), master_seed=0)
    feats = Tensor(np.random.default_rng(2).normal(size=(4, 3, 5, 2)))
    heads = []
    head_forward = model.head.forward
    model.head.forward = lambda h: heads.append(h) or head_forward(h)
    logits = model.classify_logits(feats, training=True)
    nodes = ad._topo_order(logits)
    owned = [node for node in nodes if node.data.base is None and node.data.size == 4 * 3 * 5 * 6]
    assert len(owned) == 1 and owned[0]._backward_fn.__qualname__.startswith("neuron_mlp")
    assert heads[0].shape == (4, 3, 30) and heads[0].data.base is owned[0].data


def _entry(raw, name, key="parameters"):
    return next(e for e in raw[key] if e["name"] == name)


@pytest.mark.parametrize("corrupt,message", [
    (lambda raw: raw["parameters"].append({"name": "ghost.weight", "shape": [1], "values": [0.0]}),
     "unknown parameter ghost.weight"),
    (lambda raw: raw["parameters"].remove(_entry(raw, "head.bias")),
     r"missing parameters \['head.bias'\]"),
    (lambda raw: _entry(raw, "head.bias").update(shape=[1, 2]),
     r"parameter head.bias shape \(1, 2\) != expected \(2,\)"),
    (lambda raw: raw.update(version=3), "unsupported version 3"),
    (lambda raw: raw["buffers"].append({"name": "trunk.bn.ghost", "shape": [1], "values": [0.0]}),
     "unknown buffer trunk.bn.ghost"),
    (lambda raw: raw["buffers"].remove(_entry(raw, "trunk.bn.running_var", "buffers")),
     r"missing buffers \['trunk.bn.running_var'\]"),
    (lambda raw: _entry(raw, "trunk.bn.running_mean", "buffers").update(shape=[1, 8]),
     r"buffer trunk.bn.running_mean shape \(1, 8\) != expected \(8,\)"),
    (lambda raw: raw["buffers"].append({"name": "connectome", "shape": [2, 2], "values": [0.0] * 4}),
     r"buffer connectome shape \(2, 2\) != expected \(4, 4\)"),
    (lambda raw: raw["config"].update(hidden=16), "unexpected keyword argument 'hidden'"),
    # numpy reads each of these values, and json the last two
    (lambda raw: _entry(raw, "trunk.fc1.weight")["values"].__setitem__(1, "0.5"),
     r'trunk\.fc1\.weight values\[1\] is "0\.5", not a number'),
    (lambda raw: _entry(raw, "trunk.fc1.weight")["values"].__setitem__(2, True),
     r"trunk\.fc1\.weight values\[2\] is true, not a number"),
    (lambda raw: _entry(raw, "head.bias")["values"].__setitem__(0, None),
     r"head\.bias values\[0\] is null, not a number"),
    (lambda raw: _entry(raw, "trunk.fc1.weight")["values"].__setitem__(3, float("nan")),
     r"trunk\.fc1\.weight values\[3\] is nan, not a finite number"),
    (lambda raw: _entry(raw, "trunk.bn.running_var", "buffers")["values"].__setitem__(4, -float("inf")),
     r"trunk\.bn\.running_var values\[4\] is -inf, not a finite number"),
], ids=["unknown", "missing", "shape", "version", "buffer_unknown", "buffer_missing",
        "buffer_shape", "connectome_shape", "config_key", "value_text", "value_bool", "value_null", "value_nan",
        "buffer_value_infinity"])
def test_checkpoint_rejects_bad_entries(tmp_path, corrupt, message):
    path = tmp_path / "model.ckpt"
    m.save_checkpoint(m.NeuralModel(gnn_config(), master_seed=1), path)
    raw = json.loads(path.read_text())
    corrupt(raw)
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=message) as info:
        m.load_checkpoint(path)
    assert str(info.value).startswith("load_checkpoint: ")


# -- linear baseline ----------------------------------------------------------------

def test_linear_classifier_is_affine():
    cfg = m.ModelConfig(module_kind=m.ModuleKind.LINEAR, task=m.Task.CLASSIFY, n_neurons=2,
                        n_states=2)
    model = m.NeuralModel(cfg, master_seed=1)
    feats = np.random.default_rng(1).normal(size=(5, 3, 2, 2))
    logits = model.classify_logits(Tensor(feats), training=False).data
    shifted = model.classify_logits(Tensor(feats + 3.0), training=False).data
    expected = logits + 3.0 * model.head.weight.data.sum(axis=0)
    assert np.allclose(shifted, expected, atol=1e-9)


# -- gradient flow through full models ------------------------------------------------

def model_loss_fn(model, task, feats, targets):
    """Scalar training loss as a function of the model's current parameters."""
    from wormgnn.training import mse_loss, nll_loss

    if task is m.Task.CLASSIFY:
        logits = model.classify_logits(Tensor(feats), training=True)
        return nll_loss(logits, targets)
    preds = m.rollout_batch(model, feats, steps=2, training=True)
    return mse_loss(preds, feats[:, 1:3])


@pytest.mark.parametrize("kind,task,edge_mode", [
    (m.ModuleKind.MLP, m.Task.CLASSIFY, m.EdgeMode.STATIC),
    (m.ModuleKind.MLP, m.Task.PREDICT, m.EdgeMode.STATIC),
    (m.ModuleKind.GNN, m.Task.CLASSIFY, m.EdgeMode.STATIC),
    (m.ModuleKind.GNN, m.Task.PREDICT, m.EdgeMode.DYNAMIC),
    (m.ModuleKind.NODE_MLP, m.Task.CLASSIFY, m.EdgeMode.STATIC),
    (m.ModuleKind.NODE_MLP, m.Task.PREDICT, m.EdgeMode.STATIC),
])
def test_full_model_grad_check(kind, task, edge_mode):
    cfg = m.ModelConfig(module_kind=kind, task=task, n_neurons=3, n_states=2,
                        hidden_dim=4, edge_mode=edge_mode)
    model = m.NeuralModel(cfg, master_seed=0)
    rng = np.random.default_rng(0)
    feats = rng.uniform(0.1, 0.9, size=(2, 3, 3, 2))
    targets = rng.integers(0, 2, size=(2, 3))

    # parameter-space check: perturb a weight tensor, loss recomputed in full
    # (step 1e-4 keeps central-difference roundoff below the relative-error
    # floor on near-zero gradient entries)
    params = model.parameters()
    for param in (params[0], params[-1]):
        err = ad.grad_check(lambda _: model_loss_fn(model, task, feats, targets),
                            param.tensor, step=1e-4)
        assert err < 1e-4, f"{kind}/{task} parameter {param.name}: {err}"

    if task is m.Task.CLASSIFY:
        # input-space check as well (gradients flow into the features)
        def loss_against_input(x):
            from wormgnn.training import nll_loss

            logits = model.classify_logits(x, training=True)
            return nll_loss(logits, targets)

        err = ad.grad_check(loss_against_input, ad.tensor(feats), step=1e-6)
        assert err < 1e-4


@pytest.mark.parametrize("kind", [m.ModuleKind.MLP, m.ModuleKind.GNN])
def test_recurrent_classifier_grad_check_and_determinism(kind):
    # the recurrent stage of a classifier in _stages: one gated-cell step per window frame
    cfg = m.ModelConfig(module_kind=kind, task=m.Task.CLASSIFY, n_neurons=3, n_states=2,
                        hidden_dim=4, recurrent=True)
    rng = np.random.default_rng(0)
    feats = rng.uniform(0.1, 0.9, size=(2, 3, 3, 2))
    targets = rng.integers(0, 2, size=(2, 3))
    model = m.NeuralModel(cfg, master_seed=0)
    for name in ("lstm.w_x", "lstm.w_h", "lstm.bias", "head.weight"):
        err = ad.grad_check(lambda _: model_loss_fn(model, m.Task.CLASSIFY, feats, targets),
                            model.named_parameters()[name].tensor, step=1e-4)
        assert err < 1e-4, f"{kind} parameter {name}: {err}"

    def run():
        model = m.NeuralModel(cfg, master_seed=3)
        loss = model_loss_fn(model, m.Task.CLASSIFY, feats, targets)
        loss.backward()
        return loss.item(), {name: p.tensor.grad for name, p in model.named_parameters().items()}

    (loss_a, grads_a), (loss_b, grads_b) = run(), run()
    assert loss_a == loss_b
    assert all(np.array_equal(grads_a[name], grads_b[name]) for name in grads_a)
