"""Training harness tests: losses, Adam, schedules, masking, cross-validation."""

import contextlib
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wormgnn import autodiff as ad
from wormgnn import evaluation as ev
from wormgnn import models as m
from wormgnn import training as tr
from wormgnn.autodiff import Parameter, Tensor
from wormgnn.data import (
    FINE_LABELS,
    StateLabel,
    WormRecording,
    compute_derivative,
    normalize_recording,
    windowize,
)
from wormgnn.synth import SynthConfig, generate_worm


# -- nll ------------------------------------------------------------------------

def test_nll_perfect_predictions():
    logits = Tensor(50.0 * np.eye(3)[[0, 1, 2]])
    loss = tr.nll_loss(logits, np.array([0, 1, 2]))
    assert abs(loss.item()) <= 1e-9


def test_nll_uniform_four_states():
    logits = Tensor(np.zeros((5, 4)))
    loss = tr.nll_loss(logits, np.array([0, 1, 2, 3, 0]))
    assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)


def test_nll_all_masked_zero_loss_zero_grads():
    logits = ad.tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
    loss = tr.nll_loss(logits, np.array([-1, -1, -1, -1]))
    assert loss.item() == 0.0
    loss.backward()
    assert np.array_equal(logits.grad, np.zeros((4, 3)))


def test_nll_saturated_logits_give_finite_loss_and_gradient():
    # softmax gives the target p = exp(-800) = 0, where log(softmax) is -inf
    logits = ad.tensor([[0.0, 800.0], [3.0, -1.0]], requires_grad=True)
    loss = tr.nll_loss(logits, np.array([0, -1]))
    assert loss.item() == 800.0
    loss.backward()
    assert logits.grad.tolist() == [[-1.0, 1.0], [0.0, 0.0]]


def test_nll_target_out_of_range():
    probs = Tensor(np.full((2, 3), 1 / 3))
    with pytest.raises(ValueError, match="out of range"):
        tr.nll_loss(probs, np.array([0, 3]))


def test_nll_shape_mismatch():
    probs = Tensor(np.full((2, 3), 1 / 3))
    with pytest.raises(ValueError, match="targets shape"):
        tr.nll_loss(probs, np.array([0, 1, 2]))


# -- hinge ----------------------------------------------------------------------

def test_hinge_one_vs_rest_margins():
    scores = Tensor(np.array([[2.0, -0.5], [0.3, 0.1], [5.0, 5.0]]))
    loss = tr.hinge_loss(scores, np.array([0, 1, -1]))
    # row 0: relu(1 - 2) + relu(1 - 0.5); row 1: relu(1 + 0.3) + relu(1 - 0.1); row 2 masked
    assert loss.item() == pytest.approx((0.0 + 0.5 + 1.3 + 0.9) / 4, abs=1e-12)


def test_hinge_grad_check():
    scores = Tensor(np.random.default_rng(0).normal(size=(3, 4, 3)))
    targets = np.array([[0, 1, 2, -1], [2, 2, -1, 0], [1, 0, 1, 2]])
    assert ad.grad_check(lambda x: tr.hinge_loss(x, targets), scores, step=1e-6) < 1e-4


def test_hinge_all_masked_zero_loss_zero_grads():
    scores = ad.tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
    loss = tr.hinge_loss(scores, np.array([-1, -1, -1, -1]))
    assert loss.item() == 0.0
    loss.backward()
    assert np.array_equal(scores.grad, np.zeros((4, 3)))


# -- mse ------------------------------------------------------------------------

def test_mse_identical_zero():
    x = np.random.default_rng(0).normal(size=(3, 4))
    assert tr.mse_loss(Tensor(x), x).item() == 0.0


def test_mse_constant_offset():
    x = np.zeros((5, 2))
    assert tr.mse_loss(Tensor(x + 0.1), x).item() == pytest.approx(0.01, abs=1e-15)


def test_mse_shape_mismatch():
    with pytest.raises(ValueError, match="shapes"):
        tr.mse_loss(Tensor(np.zeros((2, 2))), np.zeros((3, 2)))


# -- adam -----------------------------------------------------------------------

def test_adam_zero_gradient_no_motion():
    p = Parameter("w", np.array([1.0, -2.0]))
    adam = tr.AdamState([p], learning_rate=0.1)
    for _ in range(5):
        p.tensor.grad = np.zeros(2)
        adam.step()
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_magnitude():
    # bias-corrected first step moves each coordinate by ~lr
    p = Parameter("w", np.zeros(3))
    adam = tr.AdamState([p], learning_rate=1e-3)
    p.tensor.grad = np.array([0.5, -2.0, 10.0])
    adam.step()
    assert np.all(np.abs(p.data) <= 1e-3 * (1 + 1e-6))
    assert np.all(np.abs(p.data) >= 1e-3 * 0.99)


def test_adam_missing_gradient_named():
    p = Parameter("encoder.w1", np.zeros(2))
    adam = tr.AdamState([p], learning_rate=1e-3)
    with pytest.raises(ValueError, match="encoder.w1"):
        adam.step()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_non_finite_gradient_named_before_any_update(bad):
    first, second = Parameter("enc.fc1.weight", np.ones(2)), Parameter("head.bias", np.ones(2))
    adam = tr.AdamState([first, second], learning_rate=1e-3)
    first.tensor.grad = np.array([0.5, -0.5])
    second.tensor.grad = np.array([1.0, bad])
    with pytest.raises(ValueError, match="gradient of head.bias is NaN or infinite"):
        adam.step()
    # the finite parameter listed first did not move either
    assert np.array_equal(first.data, np.ones(2)) and np.array_equal(second.data, np.ones(2))
    assert adam.step_count == 0 and not adam.m["enc.fc1.weight"].any()


def test_adam_bit_identical_runs():
    def run():
        rng = np.random.default_rng(42)
        p = Parameter("w", rng.normal(size=4))
        adam = tr.AdamState([p], learning_rate=1e-3)
        for step in range(10):
            p.tensor.grad = np.sin(p.data + step)
            adam.step()
        return p.data.copy()

    assert np.array_equal(run(), run())


class PerParameterAdam:
    """Adam one parameter at a time: the reference the flat update is bit-equal to."""

    def __init__(self, params, learning_rate):
        self.params, self.lr, self.t = params, learning_rate, 0
        self.m = {p.name: np.zeros_like(p.data) for p in params}
        self.v = {p.name: np.zeros_like(p.data) for p in params}

    def step(self):
        self.t += 1
        for p in self.params:
            g = p.tensor.grad
            m = self.m[p.name] = tr.ADAM_BETA1 * self.m[p.name] + (1 - tr.ADAM_BETA1) * g
            v = self.v[p.name] = tr.ADAM_BETA2 * self.v[p.name] + (1 - tr.ADAM_BETA2) * g * g
            m_hat = m / (1 - tr.ADAM_BETA1**self.t)
            v_hat = v / (1 - tr.ADAM_BETA2**self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + tr.ADAM_EPS)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(1, 4), min_size=0, max_size=3), min_size=1, max_size=5),
       st.integers(1, 6), st.integers(0, 6), st.sampled_from([1e-3, 0.1, 2.5e-4]), st.floats(1e-3, 1e3),
       st.integers(0, 2**32 - 1))
def test_flat_adam_is_bit_equal_to_per_parameter_updates(shapes, steps, load_at, lr, scale, seed):
    # parameters, m and v byte for byte after every step, with gradients of
    # any size and sign (signed zeros among them), and new parameter values
    # loaded between two steps (as load_state does), which the next step uses
    rng = np.random.default_rng(seed)
    initial = [rng.normal(size=shape) for shape in shapes]
    grads = [[scale * rng.normal(size=shape) * (rng.random(shape) < 0.8) for shape in shapes]
             for _ in range(steps)]
    loaded = [rng.normal(size=shape) for shape in shapes]

    def run(optimizer):
        params = [Parameter(f"p{i}", v) for i, v in enumerate(initial)]
        adam = optimizer(params, lr)
        trace = []
        for step in range(steps):
            if step == load_at:
                for p, v in zip(params, loaded):
                    p.data = v.copy()
            for p, g in zip(params, grads[step]):
                p.tensor.grad = g
            adam.step()
            trace.append([(p.data.shape, p.data.tobytes(), adam.m[p.name].tobytes(),
                           adam.v[p.name].tobytes()) for p in params])
        return trace

    assert run(tr.AdamState) == run(PerParameterAdam)


def test_flat_adam_gives_each_parameter_a_new_array():
    # a step leaves arrays taken from parameters before it unchanged, and no
    # parameter's values live in a buffer shared with another
    params = [Parameter("a", np.ones((2, 3))), Parameter("b", np.ones(4))]
    adam = tr.AdamState(params, learning_rate=0.1)
    before = [p.data for p in params]
    for p in params:
        p.tensor.grad = np.ones(p.data.shape)
    adam.step()
    assert all(np.array_equal(old, np.ones(old.shape)) for old in before)
    assert [p.data.shape for p in params] == [(2, 3), (4,)] and (params[0].data < 1).all()
    assert all(p.data.base is None for p in params)


# -- schedules --------------------------------------------------------------------

def test_plateau_single_decay():
    state = tr.TrainState(tr.AdamState([], learning_rate=1e-3))
    tr.lr_on_plateau(state, 1.0, patience=50, factor=0.25)  # first value improves on inf
    for _ in range(50):
        tr.lr_on_plateau(state, 1.0, patience=50, factor=0.25)
    assert state.adam.lr == pytest.approx(2.5e-4)


def test_plateau_improvement_resets():
    state = tr.TrainState(tr.AdamState([], learning_rate=1e-3))
    tr.lr_on_plateau(state, 1.0, patience=50, factor=0.25)
    for _ in range(49):
        tr.lr_on_plateau(state, 1.0, patience=50, factor=0.25)
    tr.lr_on_plateau(state, 0.5, patience=50, factor=0.25)  # improvement at epoch 49
    assert state.adam.lr == 1e-3
    assert state.epochs_since_improvement == 0


def test_plateau_two_decays():
    state = tr.TrainState(tr.AdamState([], learning_rate=1e-3))
    tr.lr_on_plateau(state, 1.0, patience=50, factor=0.25)
    for _ in range(100):
        tr.lr_on_plateau(state, 1.0, patience=50, factor=0.25)
    assert state.adam.lr == pytest.approx(6.25e-5)


def test_sampling_prob_schedule():
    cfg = tr.TrainConfig()
    assert tr.sampling_prob(0, cfg) == 1.0
    assert tr.sampling_prob(150, cfg) == 0.5
    assert tr.sampling_prob(300, cfg) == 0.0
    assert tr.sampling_prob(451, cfg) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2000))
def test_sampling_prob_bounds_and_monotone(epoch):
    cfg = tr.TrainConfig()
    p = tr.sampling_prob(epoch, cfg)
    assert 0.0 <= p <= 1.0
    assert tr.sampling_prob(epoch + 1, cfg) <= p


# -- masking at the model level -----------------------------------------------------

def test_masked_timesteps_zero_gradient():
    cfg = m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.CLASSIFY,
                        n_neurons=3, n_states=2, hidden_dim=4)
    model = m.NeuralModel(cfg, master_seed=0)
    rng = np.random.default_rng(0)
    feats = rng.uniform(size=(4, 2, 3, 2))
    targets = np.array([[0, 1], [1, -1], [-1, -1], [0, 0]])

    # inference-mode forward so batch statistics cannot couple the samples
    def grads_for(feat_subset, target_subset):
        model.zero_grad()
        logits = model.classify_logits(Tensor(feat_subset), training=False)
        loss = tr.nll_loss(logits, target_subset)
        loss.backward()
        return {p.name: p.tensor.grad.copy() for p in model.parameters()
                if p.tensor.grad is not None}

    with_masked = grads_for(feats, targets)
    keep = [0, 1, 3]  # drop the all-masked window; per-window partial masks stay
    without = grads_for(feats[keep], targets[keep])
    # the masked samples contribute nothing: loss normalizer counts only valid rows
    for name, g in with_masked.items():
        assert np.allclose(g, without[name], atol=1e-12), name


def test_class_targets_binary_and_mapping():
    labels = [StateLabel.FORWARD, StateLabel.REVERSE2, StateLabel.DORSAL_TURN, StateLabel.UNKNOWN]
    assert tr.class_targets(labels, "binary").tolist() == [0, 1, -1, -1]
    assert tr.class_targets(labels, "coarse4").tolist() == [0, 1, 2, -1]


# -- end-to-end training ------------------------------------------------------------

def small_worms(n_worms=2, t=160, n_states=2, noise=0.02):
    recs = {}
    for i in range(n_worms):
        cfg = SynthConfig(n_neurons=4, n_timesteps=t, n_states=n_states,
                          noise_std=noise, mixing_seed=i, latent_seed=5,
                          angular_velocity_jitter=0.05)
        rec = generate_worm(cfg, worm_id=f"w{i}")
        recs[rec.worm_id] = rec
    return recs


def test_train_deterministic_and_checkpoint_val_loss():
    recs = small_worms()
    cfg = tr.TrainConfig(fold_count=5, window_len=8, max_epochs=6, seed=3)
    plan = tr.ExperimentPlan(task="classify2", train_worm_ids=sorted(recs))
    prepared = tr.prepare_worms(recs, "classify2", cfg, cfg.seed)

    def run():
        model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.CLASSIFY,
                                            n_neurons=4, n_states=2, hidden_dim=8),
                              master_seed=11)
        state, metrics = tr.train(model, plan, cfg, prepared, test_fold=0, val_fold=1)
        return model, state, metrics

    model_a, state_a, metrics_a = run()
    model_b, state_b, metrics_b = run()
    assert state_a.val_history == state_b.val_history
    assert metrics_a.accuracy_test == metrics_b.accuracy_test

    # reloading the checkpoint reproduces the recorded validation loss
    import wormgnn.models as mm

    path_val = tr._validation_loss(model_a, cfg, False, tr._fold_windows(prepared, plan.train_worm_ids, [1]))
    assert path_val == pytest.approx(min(state_a.val_history), abs=1e-9)


def test_checkpoint_file_roundtrip_val_loss(tmp_path):
    recs = small_worms()
    cfg = tr.TrainConfig(fold_count=5, window_len=8, max_epochs=4, seed=0)
    plan = tr.ExperimentPlan(task="classify2", train_worm_ids=sorted(recs))
    prepared = tr.prepare_worms(recs, "classify2", cfg, cfg.seed)
    model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.CLASSIFY,
                                        n_neurons=4, n_states=2, hidden_dim=8), master_seed=0)
    state, _ = tr.train(model, plan, cfg, prepared, test_fold=0, val_fold=1)
    val_windows = tr._fold_windows(prepared, plan.train_worm_ids, [1])
    before = tr._validation_loss(model, cfg, False, val_windows)

    path = tmp_path / "best.ckpt"
    m.save_checkpoint(model, path)
    reloaded = m.load_checkpoint(path)
    after = tr._validation_loss(reloaded, cfg, False, val_windows)
    assert after == pytest.approx(before, abs=1e-9)


def test_train_rejects_missing_worms():
    recs = small_worms(1)
    cfg = tr.TrainConfig(fold_count=5, window_len=8, max_epochs=1)
    plan = tr.ExperimentPlan(task="classify2", train_worm_ids=["ghost"])
    model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.CLASSIFY,
                                        n_neurons=4, n_states=2, hidden_dim=4), master_seed=0)
    prepared = tr.prepare_worms(recs, "classify2", cfg, 0)
    with pytest.raises(ValueError, match="ghost"):
        tr.train(model, plan, cfg, prepared)


@pytest.mark.parametrize("field", ["held_out_worm_ids", "extended_eval_ids"])
def test_train_rejects_unknown_evaluation_worms(field):
    recs = small_worms(3)
    cfg = tr.TrainConfig(fold_count=5, window_len=8, max_epochs=1)
    plan = tr.ExperimentPlan(task="classify2", train_worm_ids=["w0", "w1"], **{field: ["w_2"]})
    model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.CLASSIFY,
                                        n_neurons=4, n_states=2, hidden_dim=4), master_seed=0)
    prepared = tr.prepare_worms(recs, "classify2", cfg, 0)
    with pytest.raises(ValueError, match=r"worms not prepared: \['w_2'\]"):
        tr.train(model, plan, cfg, prepared)


def test_train_raises_on_non_finite_loss():
    recs = small_worms(1)
    cfg = tr.TrainConfig(fold_count=5, window_len=8, max_epochs=2)
    plan = tr.ExperimentPlan(task="classify2", train_worm_ids=["w0"])
    model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.CLASSIFY,
                                        n_neurons=4, n_states=2, hidden_dim=4), master_seed=0)
    head = model.named_parameters()["head.weight"]
    head.data[0, 0] = np.nan  # every logit is NaN (saturated logits stay finite)
    before = {name: p.data.copy() for name, p in model.named_parameters().items()}
    prepared = tr.prepare_worms(recs, "classify2", cfg, 0)
    with pytest.raises(ValueError, match="loss is nan at epoch 0, worm 'w0'"):
        tr.train(model, plan, cfg, prepared)
    # no optimizer step ran, so every parameter is unchanged
    for name, p in model.named_parameters().items():
        assert np.array_equal(p.data, before[name], equal_nan=True)


def test_train_raises_on_non_finite_validation_loss():
    recs = small_worms(1)
    cfg = tr.TrainConfig(fold_count=5, window_len=8, max_epochs=2)
    plan = tr.ExperimentPlan(task="classify2", train_worm_ids=["w0"])
    model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.CLASSIFY,
                                        n_neurons=4, n_states=2, hidden_dim=4), master_seed=0)
    # training normalizes by batch statistics, validation by the running ones
    model.body.bn.running_var[0] = np.nan
    prepared = tr.prepare_worms(recs, "classify2", cfg, 0)
    with pytest.raises(ValueError, match="validation loss is nan at epoch 0"):
        tr.train(model, plan, cfg, prepared)


def test_predict_rejects_too_short_held_out_worms_before_training(monkeypatch):
    recs = {}
    for i, t in enumerate([160, 160, 40]):
        rec = generate_worm(SynthConfig(n_neurons=3, n_timesteps=t, n_states=2, noise_std=0.02,
                                        mixing_seed=i, latent_seed=5), worm_id=f"w{i}")
        recs[rec.worm_id] = rec
    cfg = tr.TrainConfig(fold_count=5, window_len=8, max_epochs=20, eval_rollout=48)
    plan = tr.ExperimentPlan(task="predict", train_worm_ids=["w0", "w1"], held_out_worm_ids=["w2"])
    model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.PREDICT,
                                        n_neurons=3, hidden_dim=4), master_seed=0)
    prepared = tr.prepare_worms(recs, "predict", cfg, 0)

    def no_epoch(*args, **kwargs):
        raise AssertionError("an epoch ran")

    monkeypatch.setattr(tr, "_worm_loss", no_epoch)
    with pytest.raises(ValueError, match=r"per-step MSE: no window has the 48 frames of lookahead "
                                         r"that burn_in=0 and steps=48 need \(5 skipped\)"):
        tr.train(model, plan, cfg, prepared)


@pytest.mark.parametrize("test_fold,val_fold", [(0, 0), (7, 1), (0, -1)],
                         ids=["same_fold", "test_out_of_range", "val_negative"])
def test_train_rejects_unusable_folds(test_fold, val_fold):
    recs = small_worms(1)
    cfg = tr.TrainConfig(fold_count=5, window_len=8, max_epochs=1)
    plan = tr.ExperimentPlan(task="classify2", train_worm_ids=["w0"])
    model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.CLASSIFY,
                                        n_neurons=4, n_states=2, hidden_dim=4), master_seed=0)
    prepared = tr.prepare_worms(recs, "classify2", cfg, 0)
    with pytest.raises(ValueError, match=rf"test_fold {test_fold} and val_fold {val_fold} must "
                                         r"be distinct folds in \[0, 5\)"):
        tr.train(model, plan, cfg, prepared, test_fold=test_fold, val_fold=val_fold)


def test_negative_burn_in_rejected():
    with pytest.raises(ValueError, match="burn_in must be >= 0, got -1"):
        tr.TrainConfig(burn_in=-1)


@pytest.mark.parametrize("rate", [0.0, -0.1, float("nan")])
def test_non_positive_learning_rate_rejected(rate):
    # a negative rate ran gradient ascent, and a zero one never moved
    with pytest.raises(ValueError, match=rf"TrainConfig: learning_rate must be > 0, got {rate}"):
        tr.TrainConfig(learning_rate=rate)


def test_prepare_worm_pins_starts_folds_and_targets():
    # pinned: any change here moves every fold split and so every recorded result;
    # each window's six labels tie 3-3, so fold grouping goes through the tie rule
    labels = [(FINE_LABELS + [StateLabel.UNKNOWN])[(t // 3) % 8] for t in range(63)]
    traces = np.random.default_rng(4).normal(size=(3, 63))
    rec = WormRecording(worm_id="pin", dataset_tag="test", sample_period_s=0.33,
                        neuron_names=["a", "b", "c"], traces=traces,
                        derivatives=np.apply_along_axis(compute_derivative, 1, traces),
                        labels=labels)
    worm = tr.prepare_worm(rec, "classify4", tr.TrainConfig(window_len=6, fold_count=3),
                           master_seed=11)
    starts = windowize(rec, 6, seed=11)
    assert starts.tolist() == [36, 30, 48, 54, 0, 18, 6, 12, 24, 42]
    assert worm.folds.tolist() == [0, 2, 0, 0, 1, 0, 1, 1, 2, 2]
    assert worm.targets.tolist() == [
        [1, 1, 1, 2, 2, 2], [1, 1, 1, 1, 1, 1], [0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1],
        [0, 0, 0, 0, 0, 0], [3, 3, 3, -1, -1, -1], [1, 1, 1, 1, 1, 1], [1, 1, 1, 2, 2, 2],
        [0, 0, 0, 0, 0, 0], [3, 3, 3, -1, -1, -1]]
    # neuron-major within each window: sums over the stack keep their order
    assert worm.features.transpose(0, 2, 1, 3).flags.c_contiguous
    full = normalize_recording(rec).features
    assert np.array_equal(worm.recording.features, full)
    for start, window in zip(starts, worm.features):
        assert np.array_equal(window, full[start : start + 6])


def separable_worm(n_windows=40, window_len=4, fold_count=5) -> tr.PreparedWorm:
    """Two neurons whose features sit near +2 at class-1 timesteps and near -2 otherwise."""
    rng = np.random.default_rng(0)
    targets = rng.integers(0, 2, size=(n_windows, window_len))
    feats = rng.normal(scale=0.5, size=(n_windows, window_len, 2, 2))
    feats += np.where(targets == 1, 2.0, -2.0)[..., None, None]
    targets[0, 0] = -1
    return tr.PreparedWorm("sep", feats, targets, np.arange(n_windows) % fold_count, None)


def test_linear_train_separable_and_hinge_objective():
    prepared = {"sep": separable_worm()}
    cfg = tr.TrainConfig(fold_count=5, window_len=4, max_epochs=100, learning_rate=0.05)
    plan = tr.ExperimentPlan(task="classify2", train_worm_ids=["sep"])
    model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.LINEAR, task=m.Task.CLASSIFY,
                                        n_neurons=2, n_states=2), master_seed=0)
    state, metrics = tr.train(model, plan, cfg, prepared, test_fold=0, val_fold=1)
    assert metrics.accuracy_train == metrics.accuracy_val == metrics.accuracy_test == 1.0

    # the validation objective is the masked hinge plus the L2 weight penalty
    worm, mask = prepared["sep"], prepared["sep"].folds == 1
    logits = model.classify_logits(Tensor(worm.features[mask]), training=False)
    weight = model.head.weight.data
    expected = (tr.hinge_loss(logits, worm.targets[mask]).item()
                + tr.HINGE_L2 * float((weight * weight).sum()))
    assert state.best_val_loss == pytest.approx(expected, abs=1e-12)


def test_linear_sweep_runs_through_cross_validate():
    recs = small_worms(3, t=120)
    cfg = tr.TrainConfig(fold_count=4, window_len=8, max_epochs=3, seed=1, learning_rate=0.05)
    plan = tr.ExperimentPlan(task="classify2", train_worm_ids=sorted(recs))
    model_cfg = m.ModelConfig(module_kind=m.ModuleKind.LINEAR, task=m.Task.CLASSIFY,
                              n_neurons=4, n_states=2)
    records, summary = tr.cross_validate(recs, plan, cfg, model_cfg, permutation_size=2)
    assert len(records) == summary["runs"] == 12  # 3 permutations x 4 folds
    assert all(0.0 <= r.accuracy_generalization <= 1.0 for r in records)
    assert all(0.0 <= r.accuracy_test <= 1.0 for r in records)


def test_plan_validation():
    with pytest.raises(ValueError, match="both train and held-out"):
        tr.ExperimentPlan(task="classify2", train_worm_ids=["a"], held_out_worm_ids=["a"])
    with pytest.raises(ValueError, match="empty training set"):
        tr.ExperimentPlan(task="classify2", train_worm_ids=[])
    with pytest.raises(ValueError, match="unknown task"):
        tr.ExperimentPlan(task="classify9", train_worm_ids=["a"])


@pytest.mark.parametrize("lists,message", [
    ({"extended_eval_ids": ["w1"]}, "worm 'w1' named in both train and extended lists"),
    ({"held_out_worm_ids": ["w2"], "extended_eval_ids": ["w2"]},
     "worm 'w2' named in both held-out and extended lists"),
    ({"train_worm_ids": ["w0", "w0", "w1"]}, "worm 'w0' named twice in the train lists"),
], ids=["extended_is_trained_on", "held_out_and_extended", "twice_in_train"])
def test_plan_rejects_a_worm_named_twice(lists, message):
    # scored on a training worm, counted twice in the confusion support, or
    # given two optimizer steps per epoch: each is refused by name
    with pytest.raises(ValueError, match=message):
        tr.ExperimentPlan(task="classify2", **{"train_worm_ids": ["w0", "w1"], **lists})


def test_cross_validate_run_count_and_aggregation():
    recs = small_worms(5, t=120)
    cfg = tr.TrainConfig(fold_count=10, window_len=8, max_epochs=1, seed=1)
    plan = tr.ExperimentPlan(task="classify2", train_worm_ids=sorted(recs))
    model_cfg = m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.CLASSIFY,
                              n_neurons=4, n_states=2, hidden_dim=4)
    records, summary = tr.cross_validate(recs, plan, cfg, model_cfg, permutation_size=2)
    assert len(records) == 100  # 10 permutations x 10 folds
    assert summary["runs"] == 100
    accs = [r.accuracy_test for r in records if r.accuracy_test is not None]
    assert summary["accuracy_test"]["mean"] == pytest.approx(np.mean(accs), abs=1e-12)
    assert summary["accuracy_test"]["std"] == pytest.approx(np.std(accs), abs=1e-12)
    # every run carries its provenance
    assert all(len(r.permutation) == 2 for r in records)
    assert sorted({r.fold for r in records}) == list(range(10))


@pytest.mark.parametrize("task,k", [("classify4", 4), ("classify7", 7)])
def test_multistate_tasks_train(task, k):
    recs = small_worms(1, t=160, n_states=4)
    cfg = tr.TrainConfig(fold_count=5, window_len=8, max_epochs=2, seed=0)
    plan = tr.ExperimentPlan(task=task, train_worm_ids=sorted(recs))
    prepared = tr.prepare_worms(recs, task, cfg, cfg.seed)
    assert prepared["w0"].targets.max() < k
    model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.CLASSIFY,
                                        n_neurons=4, n_states=k, hidden_dim=8), master_seed=0)
    _, metrics = tr.train(model, plan, cfg, prepared, test_fold=0, val_fold=1)
    assert metrics.confusion.shape == (k, k)


def test_cross_validate_runs_only_cells_without_a_saved_record(monkeypatch):
    recs = small_worms(3, t=120)
    cfg = tr.TrainConfig(fold_count=4, window_len=8, max_epochs=1, seed=1)
    plan = tr.ExperimentPlan(task="classify2", train_worm_ids=sorted(recs))
    model_cfg = m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.CLASSIFY,
                              n_neurons=4, n_states=2, hidden_dim=4)
    full, full_summary = tr.cross_validate(recs, plan, cfg, model_cfg, permutation_size=2)
    kept = {(0, 1), (1, 0), (2, 3)}
    cells = [(pi, fold) for pi in range(3) for fold in range(4)]
    ran, run_cell = [], tr.run_cell

    def counted(prepared, plan_template, cfg, model_config, perm, perm_index, fold, **kw):
        ran.append((perm_index, fold))
        return run_cell(prepared, plan_template, cfg, model_config, perm, perm_index, fold, **kw)

    def saved(pi, perm, fold):
        record = full[cells.index((pi, fold))]
        assert tuple(record.permutation) == perm and record.fold == fold
        return record if (pi, fold) in kept else None

    monkeypatch.setattr(tr, "run_cell", counted)
    records, summary = tr.cross_validate(recs, plan, cfg, model_cfg, permutation_size=2,
                                         saved=saved)
    assert ran == [cell for cell in cells if cell not in kept]
    assert all(records[cells.index(cell)] is full[cells.index(cell)] for cell in kept)

    def result(record):
        return {k: v for k, v in record.to_dict().items() if k != "wall_time_s"}

    assert [result(r) for r in records] == [result(r) for r in full]
    assert summary == full_summary


def test_train_rejects_fewer_windows_than_folds(monkeypatch):
    # folds are read only in training, so train checks them before epoch 0
    recs = small_worms(2, t=40)  # 5 windows per worm
    cfg = tr.TrainConfig(fold_count=10, window_len=8, max_epochs=1)
    plan = tr.ExperimentPlan(task="classify2", train_worm_ids=["w0"], held_out_worm_ids=["w1"])
    prepared = tr.prepare_worms(recs, "classify2", cfg, 0)  # assigning the folds is fine
    model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.CLASSIFY,
                                        n_neurons=4, n_states=2, hidden_dim=4), master_seed=0)

    def no_epoch(*args, **kwargs):
        raise AssertionError("an epoch ran")

    monkeypatch.setattr(tr, "_worm_loss", no_epoch)
    with pytest.raises(ValueError, match="train: worm 'w0' has 5 windows for 10 folds"):
        tr.train(model, plan, cfg, prepared)


def test_cross_validate_rejects_excess_folds():
    recs = small_worms(2, t=40)  # only 5 windows per worm
    cfg = tr.TrainConfig(fold_count=10, window_len=8, max_epochs=1)
    plan = tr.ExperimentPlan(task="classify2", train_worm_ids=sorted(recs))
    model_cfg = m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.CLASSIFY,
                              n_neurons=4, n_states=2, hidden_dim=4)
    with pytest.raises(ValueError, match="windows"):
        tr.cross_validate(recs, plan, cfg, model_cfg, permutation_size=1)


@pytest.mark.parametrize("n_cells,pools", [(1, []), (2, [2]), (5, [3])])
def test_sweep_pool_starts_no_more_workers_than_cells_to_run(monkeypatch, n_cells, pools):
    # a forked pool starts every worker at its first submit: at the parent one
    # cell left at 3 workers forked 3 processes, each holding the prepared worms
    sizes = []

    class InlinePool:  # records its size and runs each cell in this process
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)

        def submit(self, fn, cell):
            future = Future()
            future.set_result(run(perms[cell[0]], *cell))
            return future

        def shutdown(self, cancel_futures):
            pass

    def run(perm, perm_index, fold):
        return (perm, fold)

    monkeypatch.setattr(tr, "ProcessPoolExecutor", InlinePool)
    perms, cells = [("w0",)], [(0, fold) for fold in range(n_cells)]
    finished = dict(tr._finished_cells(run, perms, cells, workers=3))
    assert finished == {cell: (("w0",), cell[1]) for cell in cells}
    assert sizes == pools


# A sweep that never ends on its own: it prints its two pool workers' PIDs
# and keeps training until it is killed.
ENDLESS_SWEEP = """
import multiprocessing, threading, time
from wormgnn import models as m, training as tr
from wormgnn.synth import SynthConfig, generate_worm

recs = {f"w{i}": generate_worm(SynthConfig(n_neurons=4, n_timesteps=120, n_states=2,
                                           mixing_seed=i, latent_seed=5), worm_id=f"w{i}")
        for i in range(2)}
cfg = tr.TrainConfig(fold_count=4, window_len=8, max_epochs=10**6)
plan = tr.ExperimentPlan(task="classify2", train_worm_ids=sorted(recs))
model_cfg = m.ModelConfig(module_kind="mlp", task="classify", n_neurons=4, hidden_dim=4)

def report_workers():
    while len(multiprocessing.active_children()) < 2:
        time.sleep(0.05)
    print(*(p.pid for p in multiprocessing.active_children()), flush=True)

threading.Thread(target=report_workers, daemon=True).start()
tr.cross_validate(recs, plan, cfg, model_cfg, permutation_size=1, workers=2)
"""


def process_running(pid: int) -> bool:
    """Whether ``pid`` is a live process; an exited one that nobody has reaped
    yet (a zombie) counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_pool_workers_exit_when_the_sweep_process_is_killed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    sweep = subprocess.Popen([sys.executable, "-c", ENDLESS_SWEEP], env=env,
                             stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(60, sweep.kill)  # never wait forever for the PIDs
    watchdog.start()
    try:
        workers = [int(pid) for pid in sweep.stdout.readline().split()]
    finally:
        watchdog.cancel()
        sweep.send_signal(signal.SIGKILL)  # no cleanup runs in the killed process
        sweep.wait()
        sweep.stdout.close()
    assert len(workers) == 2
    deadline = time.monotonic() + 10
    alive = workers
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = [pid for pid in alive if process_running(pid)]
    for pid in alive:  # leave no orphan behind when the test fails
        os.kill(pid, signal.SIGKILL)
    assert not alive, f"pool workers {alive} outlived their killed parent"


def test_summary_degenerate_runs_zero_std():
    from wormgnn.evaluation import RunMetrics

    records = [RunMetrics(task="classify2", accuracy_test=0.8) for _ in range(7)]
    summary = tr.summarize_runs(records)
    assert summary["accuracy_test"]["std"] == pytest.approx(0.0, abs=1e-12)
    assert summary["accuracy_test"]["mean"] == pytest.approx(0.8)


def test_lr_non_increasing_over_run():
    recs = small_worms(1)
    cfg = tr.TrainConfig(fold_count=5, window_len=8, max_epochs=8, plateau_patience=2, seed=0)
    plan = tr.ExperimentPlan(task="classify2", train_worm_ids=sorted(recs))
    prepared = tr.prepare_worms(recs, "classify2", cfg, cfg.seed)
    model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.CLASSIFY,
                                        n_neurons=4, n_states=2, hidden_dim=4), master_seed=2)
    state, _ = tr.train(model, plan, cfg, prepared)
    assert state.adam.lr <= cfg.learning_rate
    assert state.best_val_loss == pytest.approx(min(state.val_history))


def test_recurrent_predict_training_with_burn_in():
    recs = small_worms(1, t=160)
    cfg = tr.TrainConfig(fold_count=5, window_len=8, max_epochs=4, seed=0, burn_in=4)
    plan = tr.ExperimentPlan(task="predict", train_worm_ids=sorted(recs))
    prepared = tr.prepare_worms(recs, "predict", cfg, cfg.seed)
    model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.GNN, task=m.Task.PREDICT,
                                        n_neurons=4, hidden_dim=8, recurrent=True,
                                        edge_mode=m.EdgeMode.DYNAMIC), master_seed=0)
    state, metrics = tr.train(model, plan, cfg, prepared, test_fold=0, val_fold=1)
    assert len(state.val_history) == 4
    assert metrics.val_mse is not None


def test_burn_in_exhausting_window_rejected():
    recs = small_worms(1, t=160)
    cfg = tr.TrainConfig(fold_count=5, window_len=8, max_epochs=1, burn_in=7)
    plan = tr.ExperimentPlan(task="predict", train_worm_ids=sorted(recs))
    prepared = tr.prepare_worms(recs, "predict", cfg, cfg.seed)
    model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.PREDICT,
                                        n_neurons=4, hidden_dim=8, recurrent=True), master_seed=0)
    with pytest.raises(ValueError, match="burn_in"):
        tr.train(model, plan, cfg, prepared)


def test_predict_training_runs_and_improves():
    recs = small_worms(1, t=240)
    cfg = tr.TrainConfig(fold_count=5, window_len=8, max_epochs=120, seed=0,
                         sampling_decay_epochs=60)
    plan = tr.ExperimentPlan(task="predict", train_worm_ids=sorted(recs))
    prepared = tr.prepare_worms(recs, "predict", cfg, cfg.seed)
    model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.PREDICT,
                                        n_neurons=4, hidden_dim=16), master_seed=1)
    state, metrics = tr.train(model, plan, cfg, prepared, test_fold=0, val_fold=1)
    # free-running validation improves once scheduled sampling has decayed
    assert min(state.val_history[60:]) < state.val_history[0]
    assert metrics.val_mse is not None
    assert metrics.val_mse == pytest.approx(min(state.val_history), abs=1e-9)
    # the best epoch's validation loss is the restored state's: no second pass
    assert metrics.val_mse == state.best_val_loss


# -- one small cell per kind: recorded metrics, and no_grad against grad mode --------

CELL_KINDS = {
    "mlp": ("classify2", {"module_kind": "mlp"}),
    "node_mlp": ("classify2", {"module_kind": "node_mlp"}),
    "gnn_static": ("classify2", {"module_kind": "gnn", "edge_mode": "static"}),
    "gnn_dynamic": ("classify2", {"module_kind": "gnn", "edge_mode": "dynamic"}),
    "predict_gnn_dynamic": ("predict", {"module_kind": "gnn", "edge_mode": "dynamic"}),
    "predict_node_mlp": ("predict", {"module_kind": "node_mlp"}),
    "predict_node_mlp_recurrent": ("predict", {"module_kind": "node_mlp", "recurrent": True}),
    "linear": ("classify2", {"module_kind": "linear"}),
    "mlp_recurrent": ("classify2", {"module_kind": "mlp", "recurrent": True}),
    "mlp_sum": ("classify2", {"module_kind": "mlp", "aggregation": "sum"}),
    "gnn_connectome": ("classify2", {"module_kind": "gnn", "edge_mode": "connectome"}),
    "gnn_one_hot": ("classify2", {"module_kind": "gnn", "edge_mode": "one_hot"}),
    "predict_mlp": ("predict", {"module_kind": "mlp"}),
    "predict_gnn_static": ("predict", {"module_kind": "gnn", "edge_mode": "static"}),
}
# the fixed matrix the connectome cell passes messages over
CELL_CONNECTOME = np.round(np.abs(np.sin(np.arange(16.0))).reshape(4, 4), 2)

# What these cells gave at commit 69588f4, before forward-only passes ran
# under no_grad, before the pair MLP was factored per node and before NLL
# became one log-sum-exp node.  Kinds that infer no edges must match
# exactly, apart from val_history.  The factoring reorders one sum per edge,
# which moved gnn_dynamic by at most 4.5e-12 relative.  The log-sum-exp NLL
# rounds differently from log(softmax): the largest val_history deviation
# from these values is 1.8e-12 relative for mlp, 9.3e-12 for node_mlp,
# 1.6e-11 for gnn_static and 1.1e-11 for gnn_dynamic.  The two predict
# node_mlp cells were recorded at commit 0a586f0, while node_mlp still looped
# over one decoder block per neuron.  Its stacked per-neuron weights sum each
# weight gradient over all windows in one product: node_mlp's val_history
# moved by at most 6.2e-12 relative (8.3e-12 from these values), so predict
# kinds compare within rel 1e-9 too.
RECORDED_CELLS = {
    "mlp": {"accuracy_train": 0.7552083333333334, "accuracy_val": 0.75,
            "accuracy_test": 0.859375, "accuracy_generalization": 0.68125,
            "val_history": [0.6956036383347957, 0.6908617723097122, 0.6863623962745002,
                            0.6820977757457797]},
    "node_mlp": {"accuracy_train": 0.75, "accuracy_val": 0.765625, "accuracy_test": 1.0,
                 "accuracy_generalization": 0.86875,
                 "val_history": [0.6620441677797333, 0.6588753614253856, 0.6554987598432814,
                                 0.6521852034966764]},
    "gnn_static": {"accuracy_train": 0.5104166666666666, "accuracy_val": 0.75,
                   "accuracy_test": 0.75, "accuracy_generalization": 0.75625,
                   "val_history": [0.6801818874498415, 0.6779062482603977, 0.675641144930621,
                                   0.6733139899100157]},
    "gnn_dynamic": {"accuracy_train": 0.5104166666666666, "accuracy_val": 0.75,
                    "accuracy_test": 0.75, "accuracy_generalization": 0.75625,
                    "val_history": [0.6800600185772223, 0.6776630297718538, 0.6753927483324221,
                                    0.6731225274811052]},
    "predict_gnn_dynamic": {"val_mse": 0.027990756688850295,
                            "per_step_mse": [0.00957350200210531, 0.014157392758086484,
                                             0.02057243271771595, 0.029475538872776753],
                            "val_history": [0.02867373840378945, 0.028324494558121388,
                                            0.028151124606582433, 0.027990756688850295]},
    "predict_node_mlp": {"val_mse": 0.07390504682610713,
                         "per_step_mse": [0.01086076696389848, 0.018919005490456206,
                                          0.03341456288262895, 0.05325284838377573],
                         "val_history": [0.09647670996760507, 0.08794047569202305,
                                         0.08016681705504396, 0.07390504682610713]},
    "predict_node_mlp_recurrent": {"val_mse": 0.03251402965255896,
                                   "per_step_mse": [0.009713710241336316, 0.015229823590988229,
                                                    0.02310803122031947, 0.03374606208707261],
                                   "val_history": [0.03353968686314855, 0.033279037975932194,
                                                   0.03307853664784717, 0.03251402965255896]},
    # recorded at commit 1374560 and compared exactly, every value
    "linear": {"accuracy_train": 0.6041666666666666, "accuracy_val": 0.53125,
               "accuracy_test": 0.328125, "accuracy_generalization": 0.66875,
               "val_history": [1.0091711974814195, 1.0071288486886476, 1.005056564957177,
                               1.0029706258183526]},
    "mlp_recurrent": {"accuracy_train": 0.5104166666666666, "accuracy_val": 0.75,
                      "accuracy_test": 0.75, "accuracy_generalization": 0.60625,
                      "val_history": [0.6782339784451425, 0.6770542789298839,
                                      0.6757052949682874, 0.6741272604697945]},
    "mlp_sum": {"accuracy_train": 0.4895833333333333, "accuracy_val": 0.25, "accuracy_test": 0.25,
                "accuracy_generalization": 0.39375,
                "val_history": [0.7515812585689757, 0.7419989856255818, 0.7336648800477186,
                                0.726441495700761]},
    "gnn_connectome": {"accuracy_train": 0.5416666666666666, "accuracy_val": 0.328125,
                       "accuracy_test": 0.578125, "accuracy_generalization": 0.39375,
                       "val_history": [0.7242660604042699, 0.7235600744008595,
                                       0.7217951082990685, 0.7193599496500189]},
    "gnn_one_hot": {"accuracy_train": 0.5208333333333334, "accuracy_val": 0.75, "accuracy_test": 0.75,
                    "accuracy_generalization": 0.725,
                    "val_history": [0.6788068225579673, 0.6760477355785837, 0.6729587122881115,
                                    0.6699580384443925]},
    "predict_mlp": {"val_mse": 0.05060540581687201,
                    "per_step_mse": [0.010033445138565645, 0.018759809835642235,
                                     0.028155905350333833, 0.043309441300275385],
                    "val_history": [0.0671843498696224, 0.06081634043839912, 0.05523838823271672,
                                    0.05060540581687201]},
    "predict_gnn_static": {"val_mse": 0.02800203011311332,
                           "per_step_mse": [0.00957346250141321, 0.014157819552582575,
                                            0.020574850651887088, 0.02947907735423492],
                           "val_history": [0.0286799304558848, 0.028333402047888576,
                                           0.02816163816253998, 0.02800203011311332]},
}
EXACT_KINDS = {"linear", "mlp_recurrent", "mlp_sum", "gnn_connectome", "gnn_one_hot", "predict_mlp",
               "predict_gnn_static"}


def run_small_cell(kind: str) -> dict:
    """Train one 4-epoch cell of ``kind`` on two worms, the third held out;
    its metrics (wall time dropped) plus the validation history."""
    task, model_kw = CELL_KINDS[kind]
    cfg = tr.TrainConfig(fold_count=5, window_len=8, max_epochs=4, seed=3, eval_rollout=4,
                         sampling_decay_epochs=4)
    plan = tr.ExperimentPlan(task=task, train_worm_ids=["w0", "w1"], held_out_worm_ids=["w2"])
    prepared = tr.prepare_worms(small_worms(3), task, cfg, cfg.seed)
    model = m.NeuralModel(m.ModelConfig(task="predict" if task == "predict" else "classify",
                                        n_neurons=4, hidden_dim=6, **model_kw), master_seed=5)
    if model.config.edge_mode is m.EdgeMode.CONNECTOME:
        model.set_connectome(CELL_CONNECTOME)
    state, metrics = tr.train(model, plan, cfg, prepared, test_fold=0, val_fold=1)
    result = metrics.to_dict()
    del result["wall_time_s"]
    return {**result, "val_history": state.val_history}


@pytest.mark.parametrize("kind", sorted(CELL_KINDS))
def test_small_cell_matches_recorded_metrics(kind):
    result = run_small_cell(kind)
    for name, value in RECORDED_CELLS[kind].items():
        if kind not in EXACT_KINDS and (kind.startswith(("gnn", "predict")) or name == "val_history"):
            assert result[name] == pytest.approx(value, rel=1e-9, abs=0), name
        else:
            assert result[name] == value, name


@pytest.mark.parametrize("model_kw", [
    {"module_kind": "mlp"},
    {"module_kind": "gnn", "edge_mode": "static"},
    {"module_kind": "gnn", "edge_mode": "dynamic"},
], ids=["mlp", "gnn_static", "gnn_dynamic"])
def test_run_per_step_mse_is_per_step_mse_of_held_out_recordings(model_kw):
    # a predict run's rollout metric is evaluation.per_step_mse of its held-out
    # and extended worms' normalized recordings, bit for bit; 163 frames leave
    # a remainder that static edges must not see
    recs = small_worms(3, t=163)
    cfg = tr.TrainConfig(fold_count=5, window_len=8, max_epochs=2, seed=3, eval_rollout=4)
    plan = tr.ExperimentPlan(task="predict", train_worm_ids=["w0"], held_out_worm_ids=["w2"],
                             extended_eval_ids=["w1"])
    prepared = tr.prepare_worms(recs, "predict", cfg, cfg.seed)
    model = m.NeuralModel(m.ModelConfig(task="predict", n_neurons=4, hidden_dim=6, **model_kw),
                          master_seed=5)
    _, metrics = tr.train(model, plan, cfg, prepared)
    held_out = [normalize_recording(recs[wid]) for wid in ("w1", "w2")]
    expected = ev.per_step_mse(model, held_out, steps=cfg.eval_rollout, window_len=cfg.window_len,
                               burn_in=cfg.burn_in).per_step
    assert metrics.per_step_mse.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", sorted(CELL_KINDS))
def test_no_grad_passes_match_grad_mode(kind, monkeypatch):
    # validation, class prediction and evaluation rollouts give bit-identical
    # metrics whether or not they record a graph
    quiet = run_small_cell(kind)
    monkeypatch.setattr(ad, "no_grad", contextlib.nullcontext)
    assert run_small_cell(kind) == quiet
