"""Model zoo tests: edge inference, message passing, task heads, checkpoints."""

import numpy as np
import pytest

from wormgnn import autodiff as ad
from wormgnn import models as m
from wormgnn.autodiff import Tensor


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
    out = m.message_pass(np.eye(3), x)
    assert np.array_equal(out.data, x)


def test_message_pass_hand_case():
    a = np.full((2, 2), 0.5)
    out = m.message_pass(a, np.eye(2))
    assert np.array_equal(out.data, [[0.5, 0.5], [0.5, 0.5]])


def test_message_pass_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        f = int(rng.integers(1, 4))
        a = rng.uniform(size=(n, n))
        x = rng.normal(size=(n, f))
        out = m.message_pass(a, x)
        assert np.allclose(out.data, brute_force_messages(a, x), atol=1e-12)


def test_message_pass_self_edge_removal():
    a = np.ones((3, 3))
    x = np.eye(3)
    out = m.message_pass(a, x, include_self_edges=False)
    assert np.array_equal(np.diag(out.data), [0.0, 0.0, 0.0])


def test_message_pass_shape_mismatch():
    with pytest.raises(ValueError, match="adjacency"):
        m.message_pass(np.ones((2, 3)), np.ones((2, 2)))
    with pytest.raises(ValueError, match="features"):
        m.message_pass(np.ones((3, 3)), np.ones((2, 2)))


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


def test_edge_weights_in_unit_interval_and_normalized():
    model = m.NeuralModel(gnn_config(), master_seed=3)
    rng = np.random.default_rng(0)
    off_diag = ~np.eye(4, dtype=bool)
    for _ in range(20):
        window = rng.uniform(size=(4, 6, 2))
        adj = m.encode_edges(window, model)
        w = adj.values
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        assert np.array_equal(np.diag(w), np.ones(4))  # self edges enabled
        # recompute both softmax components: they must sum to one
        feats = Tensor(np.transpose(window, (1, 0, 2))[None])
        hidden = model.encoder.forward(feats, training=False).mean(axis=(0, 1))
        hidden = ad.reshape(hidden, (1, 4, hidden.shape[-1]))
        idx_i, idx_j = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        h_i = ad.index_select(hidden, 1, idx_i.reshape(-1))
        h_j = ad.index_select(hidden, 1, idx_j.reshape(-1))
        logits = model.edge_head.forward(
            model.edge_mlp.forward(ad.concat([h_i, h_j], axis=-1), False))
        probs = ad.softmax(logits, axis=-1, temperature=model.edge_temperature()).data
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
        assert np.allclose(probs[0, :, 1].reshape(4, 4)[off_diag], w[off_diag], atol=1e-12)


def test_static_mode_single_matrix_dynamic_per_timestep():
    window = np.random.default_rng(1).uniform(size=(4, 6, 2))
    static = m.NeuralModel(gnn_config(edge_mode=m.EdgeMode.STATIC), master_seed=0)
    adj = m.encode_edges(window, static)
    assert isinstance(adj, m.AdjacencyMatrix) and adj.values.shape == (4, 4)

    dynamic = m.NeuralModel(gnn_config(edge_mode=m.EdgeMode.DYNAMIC), master_seed=0)
    adjs = m.encode_edges(window, dynamic)
    assert len(adjs) == 6
    assert adjs[0].timestep == 0 and adjs[5].timestep == 5
    assert not np.allclose(adjs[0].values, adjs[1].values)


def test_one_hot_mode_saturates_more_than_unit_temperature():
    window = np.random.default_rng(5).uniform(size=(5, 8, 2))
    plain = m.NeuralModel(gnn_config(n=5, edge_mode=m.EdgeMode.STATIC), master_seed=2)
    onehot = m.NeuralModel(gnn_config(n=5, edge_mode=m.EdgeMode.ONE_HOT), master_seed=2)
    w_plain = m.encode_edges(window, plain).values
    w_hot = m.encode_edges(window, onehot).values
    assert np.abs(w_hot - 0.5).mean() > np.abs(w_plain - 0.5).mean()
    assert np.all(w_hot >= 0) and np.all(w_hot <= 1)


def test_no_self_edges_zero_diagonal():
    model = m.NeuralModel(gnn_config(include_self_edges=False), master_seed=1)
    window = np.random.default_rng(2).uniform(size=(4, 6, 2))
    adj = m.encode_edges(window, model)
    assert np.array_equal(np.diag(adj.values), np.zeros(4))


def test_connectome_mode_rejected_by_encoder():
    model = m.NeuralModel(gnn_config(edge_mode=m.EdgeMode.CONNECTOME), master_seed=0)
    with pytest.raises(ValueError, match="connectome"):
        m.encode_edges(np.random.default_rng(0).uniform(size=(4, 6, 2)), model)


# -- connectome file -----------------------------------------------------------

def test_connectome_empty(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("")
    adj = m.load_connectome_edges(path, ["A", "B"], include_self_edges=True)
    assert np.array_equal(adj.values, np.eye(2))
    adj2 = m.load_connectome_edges(path, ["A", "B"], include_self_edges=False)
    assert np.array_equal(adj2.values, np.zeros((2, 2)))


def test_connectome_row_max_normalization(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b 2.0\n")
    adj = m.load_connectome_edges(path, ["a", "b"], include_self_edges=False)
    assert adj.values[0, 1] == 1.0
    assert adj.values[1, 0] == 0.0


def test_connectome_drops_outside_neurons(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b 1.0\nzz a 5.0\nb zz 4.0\n")
    adj = m.load_connectome_edges(path, ["a", "b"], include_self_edges=False)
    assert adj.values[0, 1] == 1.0
    assert adj.values.sum() == 1.0


# -- module forwards -----------------------------------------------------------

def test_mlp_forward_shape_and_zero_case():
    model = m.NeuralModel(mlp_config(), master_seed=0)
    out = m.mlp_forward(np.zeros((4, 2)), model)
    assert out.shape == (8,)
    # zero input with zero biases: pre-activation output of the trunk is zero,
    # so the ReLU chain stays zero and batch norm shifts by beta (zero here)
    assert np.allclose(out.data, 0.0)


def test_mlp_forward_neuron_count_mismatch():
    model = m.NeuralModel(mlp_config(), master_seed=0)
    with pytest.raises(ValueError, match="neurons"):
        m.mlp_forward(np.zeros((5, 2)), model)


def test_mlp_concatenation_is_order_sensitive():
    model = m.NeuralModel(mlp_config(n=5), master_seed=4)
    rng = np.random.default_rng(0)
    feats = rng.uniform(size=(5, 2))
    base = m.mlp_forward(feats, model).data
    permuted = m.mlp_forward(feats[[1, 0, 2, 4, 3]], model).data
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


def test_gnn_forward_shapes():
    clf = m.NeuralModel(gnn_config(), master_seed=0)
    hidden = m.gnn_forward(np.random.default_rng(0).uniform(size=(4, 2)), np.eye(4), clf)
    assert hidden.shape == (8,)

    pred = m.NeuralModel(gnn_config(task=m.Task.PREDICT), master_seed=0)
    out = m.gnn_forward(np.random.default_rng(0).uniform(size=(4, 2)), np.eye(4), pred)
    assert out.shape == (4, 2)


def test_gnn_zero_adjacency_zero_bias_output():
    model = m.NeuralModel(gnn_config(), master_seed=0)
    hidden = m.gnn_forward(np.random.default_rng(3).uniform(size=(4, 2)), np.zeros((4, 4)), model)
    # zero messages through zero-bias layers: identically zero pre-activations
    assert np.allclose(hidden.data, 0.0)


def test_identity_adjacency_reduces_gnn_to_mlp():
    gnn = m.NeuralModel(gnn_config(n=4, hidden=8), master_seed=0)
    mlp = m.NeuralModel(mlp_config(n=4, hidden=8), master_seed=9)
    # copy trunk weights between the two models
    gnn_params = gnn.named_parameters()
    for name, p in mlp.named_parameters().items():
        if name.startswith("trunk."):
            p.data = gnn_params[name].data.copy()
    feats = np.random.default_rng(1).uniform(size=(4, 2))
    assert np.allclose(
        m.gnn_forward(feats, np.eye(4), gnn).data,
        m.mlp_forward(feats, mlp).data,
        atol=1e-12,
    )


# -- classify / predict heads ---------------------------------------------------

def test_classify_argmax():
    model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.CLASSIFY,
                                        n_neurons=2, n_states=3, hidden_dim=4), master_seed=0)
    probs, state = m.classify(ad.tensor([2.0, 1.0, 0.0]), model)
    assert state == 0
    assert probs.data.sum() == pytest.approx(1.0, abs=1e-9)


def test_classify_tie_breaks_low_index():
    model = m.NeuralModel(mlp_config(), master_seed=0)
    _, state = m.classify(ad.tensor([1.0, 1.0]), model)
    assert state == 0


def test_classify_temperature_and_shift_invariance():
    model = m.NeuralModel(mlp_config(), master_seed=0)
    logits = np.array([0.3, -1.2])
    _, base = m.classify(ad.tensor(logits), model)
    _, shifted = m.classify(ad.tensor(logits + 5.0), model)
    assert base == shifted


def test_predict_step_zero_residual_is_identity():
    stub = m.ConstantResidualModel(n_neurons=3)
    x = np.random.default_rng(0).uniform(size=(3, 2))
    out, _ = m.predict_step(x, stub)
    assert np.array_equal(out.data, x)


def test_predict_step_output_shape():
    model = m.NeuralModel(mlp_config(task=m.Task.PREDICT), master_seed=0)
    x = np.random.default_rng(0).uniform(size=(4, 2))
    out, _ = m.predict_step(x, model)
    assert out.shape == (4, 2)


# -- rollout ---------------------------------------------------------------------

def test_rollout_returns_requested_frames():
    model = m.NeuralModel(mlp_config(task=m.Task.PREDICT), master_seed=0)
    preds = m.rollout(np.random.default_rng(0).uniform(size=(4, 2)), 16, model)
    assert len(preds) == 16
    assert preds[0].shape == (4, 2)


def test_rollout_pure_teacher_forcing():
    stub = m.ConstantResidualModel(n_neurons=2, residual=np.full((2, 2), 0.25))
    teacher = np.random.default_rng(0).uniform(size=(6, 2, 2))
    preds = m.rollout(teacher[0], 5, stub, teacher=teacher, sampling_prob=1.0,
                      rng=np.random.default_rng(1))
    for k in range(5):
        assert np.allclose(preds[k], teacher[k] + 0.25)


def test_rollout_free_running_identity_is_constant():
    stub = m.ConstantResidualModel(n_neurons=2)
    x0 = np.random.default_rng(0).uniform(size=(2, 2))
    preds = m.rollout(x0, 7, stub, sampling_prob=0.0)
    for frame in preds:
        assert np.array_equal(frame, x0)


def test_rollout_teacher_too_short():
    stub = m.ConstantResidualModel(n_neurons=2)
    teacher = np.zeros((3, 2, 2))
    with pytest.raises(ValueError, match="teacher"):
        m.rollout(teacher[0], 8, stub, teacher=teacher, sampling_prob=0.5,
                  rng=np.random.default_rng(0))


def test_rollout_recurrent_burn_in():
    model = m.NeuralModel(gnn_config(task=m.Task.PREDICT, recurrent=True,
                                     edge_mode=m.EdgeMode.DYNAMIC), master_seed=0)
    teacher = np.random.default_rng(0).uniform(size=(9, 4, 2))
    preds = m.rollout(teacher[0], 5, model, teacher=teacher, burn_in=4)
    assert len(preds) == 5
    with pytest.raises(ValueError, match="teacher"):
        m.rollout(teacher[0], 6, model, teacher=teacher[:8], burn_in=4)


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
    feats = np.random.default_rng(0).uniform(size=(4, 2))
    out_a, _ = m.predict_step(feats, model)
    out_b, _ = m.predict_step(feats, clone)
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


# -- linear baseline ----------------------------------------------------------------

def test_linear_baseline_separable():
    rng = np.random.default_rng(0)
    x0 = rng.normal(loc=-2.0, size=(40, 3))
    x1 = rng.normal(loc=+2.0, size=(40, 3))
    features = np.vstack([x0, x1])
    labels = np.array([0] * 40 + [1] * 40)
    clf = m.linear_baseline(features, labels, epochs=300)
    assert (clf.predict(features) == labels).mean() == 1.0


def test_linear_baseline_single_class_rejected():
    with pytest.raises(ValueError, match="2 classes"):
        m.linear_baseline(np.zeros((5, 2)), np.zeros(5, dtype=int))


def test_linear_baseline_is_affine():
    rng = np.random.default_rng(1)
    features = rng.normal(size=(30, 4))
    labels = rng.integers(0, 2, size=30)
    clf = m.linear_baseline(features, labels, epochs=50)
    shift = features + 3.0
    expected = clf.scores(features) + 3.0 * clf.weights.sum(axis=0)
    assert np.allclose(clf.scores(shift), expected, atol=1e-9)


# -- gradient flow through full models ------------------------------------------------

def model_loss_fn(model, task, feats, targets):
    """Scalar training loss as a function of the model's current parameters."""
    from wormgnn.training import mse_loss, nll_loss

    if task is m.Task.CLASSIFY:
        logits = model.classify_logits(Tensor(feats), training=True)
        probs = ad.softmax(logits, axis=-1)
        return nll_loss(probs, targets)
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
            return nll_loss(ad.softmax(logits, axis=-1), targets)

        err = ad.grad_check(loss_against_input, ad.tensor(feats), step=1e-6)
        assert err < 1e-4
