"""Acceptance criteria: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 12 needs
user-supplied real recordings under data/real/ and is skipped otherwise.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from wormgnn import autodiff as ad
from wormgnn import evaluation as ev
from wormgnn import models as m
from wormgnn import training as tr
from wormgnn.autodiff import Tensor
from wormgnn.cli import main as cli_main
from wormgnn.data import (
    StateLabel,
    WormRecording,
    compute_derivative,
    map_labels,
    worm_permutations,
)
from wormgnn.synth import SynthConfig, generate_worm, latent_trajectory, mixing_matrix

from model_stubs import ConstantResidualModel, composed_edge_block

GRAD_TOL = 1e-4


def report(criterion: int, message: str):
    print(f"[criterion {criterion:2d}] PASS  {message}", file=sys.stderr)


def scalarize(op):
    def build(x):
        out = op(x)
        weights = ad.Tensor(np.cos(np.arange(out.data.size)).reshape(out.shape))
        return ad.mul(out, weights).sum()

    return build


OPS = {
    "add": lambda x: ad.add(x, ad.Tensor(np.linspace(-1, 1, x.data.size).reshape(x.shape))),
    "sub": lambda x: ad.sub(ad.Tensor(np.linspace(0, 2, x.data.size).reshape(x.shape)), x),
    "mul": lambda x: ad.mul(x, ad.Tensor(np.linspace(0.5, 1.5, x.data.size).reshape(x.shape))),
    "scale": lambda x: ad.scale(x, -2.5),
    "matmul": lambda x: ad.matmul(x, ad.Tensor(np.linspace(-1, 1, 12).reshape(4, 3))),
    "relu": lambda x: ad.relu(x),
    "softmax": lambda x: ad.softmax(x, axis=-1, temperature=0.7),
    "log": lambda x: ad.log(ad.add(ad.mul(x, x), ad.Tensor(np.full(x.shape, 0.5)))),
    "sigmoid": lambda x: ad.sigmoid(x),
    "tanh": lambda x: ad.tanh(x),
    "power": lambda x: ad.power(ad.add(ad.mul(x, x), ad.Tensor(np.ones(x.shape))), -0.5),
    "concat": lambda x: ad.concat([x, ad.mul(x, x)], axis=1),
    "sum": lambda x: ad.tensor_sum(x, axis=0, keepdims=True),
    "mean": lambda x: ad.tensor_mean(x, axis=1),
    "reshape": lambda x: ad.reshape(x, (4, 3)),
    "index_select": lambda x: ad.index_select(x, 1, [0, 2, 2, 1]),
}


def model_loss(model, task, feats, targets):
    if task is m.Task.CLASSIFY:
        logits = model.classify_logits(Tensor(feats), training=True)
        return tr.nll_loss(logits, targets)
    preds = m.rollout_batch(model, feats, steps=2, training=True)
    return tr.mse_loss(preds, feats[:, 1:3])


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    for name, op in OPS.items():
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = ad.tensor(rng.normal(size=(3, 4)) + 0.1)
            err = ad.grad_check(scalarize(op), x, step=1e-6)
            worst = max(worst, err)
            assert err < GRAD_TOL, f"{name} seed {seed}: {err}"

    # gated cell and batch norm (training mode)
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        h0 = ad.Tensor(rng.normal(size=(2, 3)))
        c0 = ad.Tensor(rng.normal(size=(2, 3)))
        w_x = ad.Tensor(rng.normal(size=(4, 12)) * 0.4)
        w_h = ad.Tensor(rng.normal(size=(3, 12)) * 0.4)
        b = ad.Tensor(rng.normal(size=12) * 0.1)

        def cell(x):
            h1, c1 = ad.lstm_cell(x, h0, c0, w_x, w_h, b)
            return ad.add(h1, c1).sum()

        err = ad.grad_check(cell, ad.tensor(rng.normal(size=(2, 4))), step=1e-6)
        worst = max(worst, err)
        assert err < GRAD_TOL

        def bn_fn(t):
            bn = ad.BatchNorm(4, name="bn")
            bn.gamma.data = 1.0 + 0.1 * np.arange(4)
            return ad.mul(bn.forward(t, training=True),
                          ad.Tensor(np.cos(np.arange(24)).reshape(6, 4))).sum()

        err = ad.grad_check(bn_fn, ad.tensor(rng.normal(size=(6, 4))), step=1e-6)
        worst = max(worst, err)
        assert err < GRAD_TOL

    # full models, both module kinds and both tasks; step 1e-4 keeps the
    # central-difference roundoff (eps*|loss|/2h) below the 1e-8 floor of the
    # relative-error denominator for near-zero gradient entries
    combos = [
        (m.ModuleKind.MLP, m.Task.CLASSIFY, m.EdgeMode.STATIC),
        (m.ModuleKind.MLP, m.Task.PREDICT, m.EdgeMode.STATIC),
        (m.ModuleKind.GNN, m.Task.CLASSIFY, m.EdgeMode.STATIC),
        (m.ModuleKind.GNN, m.Task.PREDICT, m.EdgeMode.DYNAMIC),
    ]
    for kind, task, edge_mode in combos:
        for seed in range(10):
            cfg = m.ModelConfig(module_kind=kind, task=task, n_neurons=3, n_states=2,
                                hidden_dim=4, edge_mode=edge_mode)
            model = m.NeuralModel(cfg, master_seed=seed)
            rng = np.random.default_rng(seed)
            feats = rng.uniform(0.1, 0.9, size=(2, 3, 3, 2))
            targets = rng.integers(0, 2, size=(2, 3))
            params = model.parameters()
            for param in (params[0], params[-1]):
                err = ad.grad_check(lambda _: model_loss(model, task, feats, targets),
                                    param.tensor, step=1e-4)
                worst = max(worst, err)
                assert err < GRAD_TOL, f"{kind}/{task} {param.name} seed {seed}: {err}"

    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"gradient checks took {elapsed:.0f}s (budget 120s)"
    report(1, f"all ops and full models: max grad-check error {worst:.2e} in {elapsed:.0f}s")


def test_criterion_2_message_passing_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        f = int(rng.integers(1, 5))
        a = rng.uniform(size=(n, n))
        x = rng.normal(size=(n, f))
        got = m.message_pass(Tensor(a), Tensor(x)).data
        want = np.zeros((n, f))
        for i in range(n):
            for j in range(n):
                want[i] += a[i, j] * x[j]
        worst = max(worst, float(np.abs(got - want).max()))
        assert np.allclose(got, want, atol=1e-12)
    report(2, f"100 brute-force instances, max deviation {worst:.2e} (tol 1e-12)")


def test_criterion_3_edge_weight_normalization():
    rng = np.random.default_rng(3)
    checked = 0
    for model_seed in range(10):
        model = m.NeuralModel(
            m.ModelConfig(module_kind=m.ModuleKind.GNN, task=m.Task.CLASSIFY, n_neurons=4,
                          n_states=2, hidden_dim=6, edge_mode=m.EdgeMode.DYNAMIC),
            master_seed=model_seed)
        feats = Tensor(rng.uniform(size=(100, 1, 4, 2)))
        hidden = model.encoder.forward(feats, training=False)
        # the pair MLP scores all 16 ordered pairs of the 4 node embeddings
        weights = model.edge_mlp.parameters() + model.edge_head.parameters()
        logits = composed_edge_block(hidden, *(p.tensor for p in weights))
        assert logits.shape == (100, 1, 16, 2)
        probs = ad.softmax(logits, axis=-1, temperature=model.edge_temperature()).data
        assert np.all(np.abs(probs.sum(axis=-1) - 1.0) < 1e-9)
        w = model.edge_weights(feats, training=False).data
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        checked += feats.shape[0]
    assert checked == 1000

    # static mode: one matrix for the whole window, invariant to frame order
    static = m.NeuralModel(
        m.ModelConfig(module_kind=m.ModuleKind.GNN, task=m.Task.CLASSIFY, n_neurons=4,
                      n_states=2, hidden_dim=6, edge_mode=m.EdgeMode.STATIC), master_seed=0)
    frames = rng.uniform(size=(12, 4, 2))
    adj = m.encode_edges(frames, static)
    assert isinstance(adj, np.ndarray) and adj.shape == (4, 4)
    shuffled = frames[rng.permutation(12)]
    adj2 = m.encode_edges(shuffled, static)
    assert np.allclose(adj, adj2, atol=1e-12)
    report(3, "1000 inputs: pair components sum to 1 (1e-9), w in [0,1]; static A timestep-invariant")


def test_criterion_4_scheduled_sampling_schedule():
    cfg = tr.TrainConfig()
    assert tr.sampling_prob(0, cfg) == 1.0
    assert tr.sampling_prob(150, cfg) == 0.5
    assert tr.sampling_prob(300, cfg) == 0.0
    report(4, "sampling_prob(0)=1, (150)=0.5, (300)=0 exactly")


def test_criterion_5_permutation_protocol():
    pairs = worm_permutations(["1", "2", "3", "4", "5"], 2)
    assert pairs == [
        ("1", "2"), ("1", "3"), ("1", "4"), ("1", "5"), ("2", "3"),
        ("2", "4"), ("2", "5"), ("3", "4"), ("3", "5"), ("4", "5"),
    ]

    recs = {}
    for i in range(5):
        rec = generate_worm(SynthConfig(n_neurons=4, n_timesteps=120, n_states=2,
                                        noise_std=0.05, mixing_seed=i, latent_seed=1),
                            worm_id=f"w{i}")
        recs[rec.worm_id] = rec
    cfg = tr.TrainConfig(fold_count=10, window_len=8, max_epochs=1, seed=0)
    plan = tr.ExperimentPlan(task="classify2", train_worm_ids=sorted(recs))
    model_cfg = m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.CLASSIFY,
                              n_neurons=4, n_states=2, hidden_dim=4)
    records, summary = tr.cross_validate(recs, plan, cfg, model_cfg, permutation_size=2)
    assert len(records) == 100
    assert summary["runs"] == 100
    report(5, "the 10 documented pairs in order; cross_validate emitted 100 runs")


def test_criterion_6_label_mapping_and_masking():
    expected = {
        StateLabel.FORWARD: StateLabel.FORWARD4,
        StateLabel.FORWARD_SLOWING: StateLabel.FORWARD4,
        StateLabel.REVERSE1: StateLabel.REVERSE4,
        StateLabel.REVERSE2: StateLabel.REVERSE4,
        StateLabel.SUSTAINED_REVERSE: StateLabel.REVERSE4,
        StateLabel.DORSAL_TURN: StateLabel.DORSAL_TURN4,
        StateLabel.VENTRAL_TURN: StateLabel.VENTRAL_TURN4,
        StateLabel.UNKNOWN: StateLabel.UNKNOWN,
    }
    fine = list(expected)
    assert len(fine) == 8
    assert map_labels(fine) == [expected[lab] for lab in fine]

    model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.CLASSIFY,
                                        n_neurons=3, n_states=4, hidden_dim=4), master_seed=0)
    feats = np.random.default_rng(0).uniform(size=(2, 4, 3, 2))
    targets = np.full((2, 4), -1)
    model.zero_grad()
    logits = model.classify_logits(Tensor(feats), training=True)
    loss = tr.nll_loss(logits, targets)
    assert loss.item() == 0.0
    loss.backward()
    for p in model.parameters():
        assert p.tensor.grad is not None
        assert np.array_equal(p.tensor.grad, np.zeros_like(p.data)), p.name
    report(6, "7->4 map exact on all 8 fine labels; all-Unknown batch: zero loss, zero gradients")


def _overfit_worm():
    rec = generate_worm(SynthConfig(n_neurons=15, n_timesteps=3200, n_states=2,
                                    noise_std=0.05, mixing_seed=0, latent_seed=1,
                                    angular_velocity_jitter=0.05), worm_id="w0")
    return {"w0": rec}


def test_criterion_7_overfit_sanity():
    started = time.perf_counter()
    recs = _overfit_worm()
    cfg = tr.TrainConfig(fold_count=10, window_len=8, max_epochs=200, seed=0)
    plan = tr.ExperimentPlan(task="classify2", train_worm_ids=["w0"])
    prepared = tr.prepare_worms(recs, "classify2", cfg, cfg.seed)
    results = {}
    for kind in (m.ModuleKind.MLP, m.ModuleKind.GNN):
        model = m.NeuralModel(m.ModelConfig(module_kind=kind, task=m.Task.CLASSIFY,
                                            n_neurons=15, n_states=2, hidden_dim=16,
                                            edge_mode=m.EdgeMode.STATIC), master_seed=0)
        state, metrics = tr.train(model, plan, cfg, prepared, test_fold=0, val_fold=1)
        results[kind.value] = metrics.accuracy_train
        assert metrics.accuracy_train >= 0.95, f"{kind.value}: {metrics.accuracy_train}"
        # loss at epoch 1 exceeds loss at epoch 50
        assert state.val_history[0] > state.val_history[49]
    elapsed = time.perf_counter() - started
    assert elapsed < 300, f"overfit runs took {elapsed:.0f}s (budget 300s)"
    report(7, f"train accuracy MLP {results['mlp']:.3f}, GNN {results['gnn']:.3f} "
              f"(>=0.95 within 200 epochs, {elapsed:.0f}s)")


def test_criterion_8_synthetic_generalization():
    heldout = {"mlp": [], "gnn": []}
    for master_seed in range(5):
        recs = {}
        for i in range(5):
            rec = generate_worm(SynthConfig(
                n_neurons=15, n_timesteps=800, n_states=2, noise_std=0.05,
                mixing_seed=1000 * master_seed + i, latent_seed=master_seed,
                angular_velocity_jitter=0.05), worm_id=f"w{i}")
            recs[rec.worm_id] = rec
        cfg = tr.TrainConfig(fold_count=10, window_len=8, max_epochs=200, seed=master_seed)
        plan = tr.ExperimentPlan(task="classify2", train_worm_ids=["w0", "w1", "w2"],
                                 held_out_worm_ids=["w3", "w4"])
        prepared = tr.prepare_worms(recs, "classify2", cfg, cfg.seed)
        for kind in (m.ModuleKind.MLP, m.ModuleKind.GNN):
            model = m.NeuralModel(m.ModelConfig(module_kind=kind, task=m.Task.CLASSIFY,
                                                n_neurons=15, n_states=2, hidden_dim=16,
                                                edge_mode=m.EdgeMode.STATIC),
                                  master_seed=master_seed)
            _, metrics = tr.train(model, plan, cfg, prepared, test_fold=0, val_fold=1)
            heldout[kind.value].append(metrics.accuracy_generalization)

    gnn_mean = float(np.mean(heldout["gnn"]))
    mlp_mean = float(np.mean(heldout["mlp"]))
    assert all(acc >= 0.80 for acc in heldout["gnn"]), heldout["gnn"]
    assert gnn_mean >= mlp_mean - 0.02, (gnn_mean, mlp_mean)
    report(8, f"held-out accuracy over 5 seeds: GNN {gnn_mean:.3f} (all >=0.80), "
              f"MLP {mlp_mean:.3f}; GNN >= MLP - 2pp")


def _ramp_recording(t=100, c=0.01, n=3):
    trace = np.arange(t) * c
    traces = np.tile(trace, (n, 1))
    return WormRecording(
        worm_id="ramp", dataset_tag="synthetic", sample_period_s=1 / 3,
        neuron_names=[f"N{i}" for i in range(n)], traces=traces,
        derivatives=np.apply_along_axis(compute_derivative, 1, traces),
        labels=[StateLabel.FORWARD] * t)


def test_criterion_9_trajectory_rollout():
    rec = _ramp_recording()
    cfg = tr.TrainConfig(fold_count=10, window_len=8, max_epochs=400, seed=0,
                         sampling_decay_epochs=100)
    prepared = tr.prepare_worms({"ramp": rec}, "predict", cfg, 0)
    plan = tr.ExperimentPlan(task="predict", train_worm_ids=["ramp"])
    model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.PREDICT,
                                        n_neurons=3, hidden_dim=32), master_seed=0)
    tr.train(model, plan, cfg, prepared, test_fold=0, val_fold=1)
    from wormgnn.data import normalize_recording

    rollout_mse = ev.per_step_mse(model, [normalize_recording(rec)], steps=16).per_step.mean()
    assert rollout_mse < 1e-3, rollout_mse

    # identity model on ramp data in both channels: per-step MSE is (s*c)^2
    t, c = 200, 0.002
    ramp = np.arange(t) * c
    ramp_rec = WormRecording(
        worm_id="r", dataset_tag="t", sample_period_s=1 / 3,
        neuron_names=["A", "B"], traces=np.tile(ramp, (2, 1)),
        derivatives=np.tile(ramp, (2, 1)), labels=[StateLabel.FORWARD] * t)
    identity = ConstantResidualModel(2)
    per_step = ev.per_step_mse(identity, [ramp_rec], steps=16).per_step
    expected = (np.arange(1, 17) * c) ** 2
    assert np.allclose(per_step, expected, atol=1e-9)
    report(9, f"trained 16-step rollout MSE {rollout_mse:.2e} (<1e-3); "
              f"identity ramp MSE matches (s*c)^2 within 1e-9")


def test_criterion_10_pca():
    cfg = SynthConfig(n_neurons=12, n_timesteps=500, n_states=4, latent_dim=3,
                      noise_std=0.0, mixing_seed=2, latent_seed=6,
                      angular_velocity_jitter=0.04)
    rec = generate_worm(cfg)
    result = ev.pca_project(rec.derivatives, components=3)
    top3 = float(result.fractions[:3].sum())
    assert top3 >= 0.99, top3

    # spectrum invariant under orthogonal mixing changes
    latent = latent_trajectory(cfg)
    frac_a = ev.pca_project(mixing_matrix(cfg) @ latent).fractions
    cfg_b = SynthConfig(n_neurons=12, n_timesteps=500, n_states=4, latent_dim=3,
                        noise_std=0.0, mixing_seed=77, latent_seed=6,
                        angular_velocity_jitter=0.04)
    frac_b = ev.pca_project(mixing_matrix(cfg_b) @ latent).fractions
    assert np.allclose(frac_a, frac_b, atol=1e-9)
    report(10, f"noiseless worm top-3 explained variance {top3:.4f} (>=0.99); "
               f"spectrum invariant to mixing change (1e-9)")


def test_criterion_11_determinism(tmp_path):
    def strip(payload):
        if isinstance(payload, dict):
            return {k: strip(v) for k, v in payload.items()
                    if k != "wall_time_s"}
        if isinstance(payload, list):
            return [strip(v) for v in payload]
        return payload

    data_cfg = tmp_path / "synth.json"
    data_cfg.write_text(json.dumps({
        "n_worms": 3, "n_neurons": 5, "n_timesteps": 160, "n_states": 2,
        "noise_std": 0.05, "angular_velocity_jitter": 0.05,
    }))
    data = tmp_path / "data"
    assert cli_main(["gen-synth", "--config", str(data_cfg), "--out", str(data),
                     "--seed", "9"]) == 0

    cv_cfg = tmp_path / "cv.json"
    cv_cfg.write_text(json.dumps({
        "task": "classify2", "data_dir": str(data), "permutation_size": 2,
        "model": {"module_kind": "gnn", "edge_mode": "static", "hidden_dim": 4},
        "train": {"max_epochs": 2, "fold_count": 4, "window_len": 8},
    }))
    out_a = tmp_path / "cv_a"
    assert cli_main(["cross-validate", "--config", str(cv_cfg), "--out", str(out_a),
                     "--seed", "9"]) == 0

    # rerun from the manifest into a fresh directory
    out_b = tmp_path / "cv_b"
    assert cli_main(["cross-validate", "--config", str(out_a / "manifest.json"),
                     "--out", str(out_b)]) == 0
    rec_a = [strip(json.loads(line)) for line in (out_a / "records.jsonl").read_text().splitlines()]
    rec_b = [strip(json.loads(line)) for line in (out_b / "records.jsonl").read_text().splitlines()]
    assert rec_a == rec_b
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    assert (out_a / "accuracy.tsv").read_bytes() == (out_b / "accuracy.tsv").read_bytes()
    report(11, "cross-validate rerun from manifest: records bit-identical (wall time excluded)")


REAL_DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "real"


def test_criterion_12_real_data_optional():
    files = sorted(REAL_DATA_DIR.glob("*.json")) if REAL_DATA_DIR.is_dir() else []
    if not files:
        pytest.skip(f"no user-supplied recordings under {REAL_DATA_DIR}; criterion 12 skipped")
    from wormgnn.data import load_recording

    recs = {}
    for path in files:
        rec = load_recording(path)
        recs[rec.worm_id] = rec
    cfg = tr.TrainConfig(fold_count=10, window_len=8, max_epochs=200, seed=0)
    accs = []
    for wid in sorted(recs):
        plan = tr.ExperimentPlan(task="classify2", train_worm_ids=[wid])
        prepared = tr.prepare_worms({wid: recs[wid]}, "classify2", cfg, cfg.seed)
        model = m.NeuralModel(m.ModelConfig(module_kind=m.ModuleKind.GNN, task=m.Task.CLASSIFY,
                                            n_neurons=recs[wid].n_neurons, n_states=2,
                                            hidden_dim=16, edge_mode=m.EdgeMode.STATIC),
                              master_seed=0)
        _, metrics = tr.train(model, plan, cfg, prepared, test_fold=0, val_fold=1)
        accs.append(metrics.accuracy_test)
    mean_acc = float(np.mean(accs))
    assert mean_acc >= 0.95, accs
    report(12, f"real recordings: same-worm test accuracy {mean_acc:.3f} (>=0.95)")
