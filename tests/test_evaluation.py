"""Evaluation tests: accuracy masking, confusion matrices, rollout MSE, PCA."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wormgnn import evaluation as ev
from wormgnn.data import StateLabel, WormRecording, compute_derivative
from wormgnn.models import ConstantResidualModel, rollout_batch
from wormgnn.synth import SynthConfig, generate_worm, mixing_matrix
from wormgnn.training import mse_loss


# -- accuracy --------------------------------------------------------------------

def test_accuracy_all_correct():
    assert ev.accuracy([0, 1, 1], [0, 1, 1]) == 1.0


def test_accuracy_half():
    assert ev.accuracy([0, 0, 1, 1], [0, 1, 1, 0]) == 0.5


def test_accuracy_with_mask():
    preds = [0] * 10
    targets = [0, 0, 1] + [-1] * 7
    assert ev.accuracy(preds, targets) == pytest.approx(2 / 3)


def test_accuracy_all_masked_is_undefined():
    assert ev.accuracy([0, 1], [-1, -1]) is None


def test_accuracy_relabeling_invariance():
    rng = np.random.default_rng(0)
    preds = rng.integers(0, 3, size=50)
    targets = rng.integers(0, 3, size=50)
    base = ev.accuracy(preds, targets)
    relabel = np.array([2, 0, 1])
    assert ev.accuracy(relabel[preds], relabel[targets]) == base


# -- confusion matrix ---------------------------------------------------------------

def test_confusion_perfect_predictor():
    percent, support = ev.confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1], 3)
    assert np.allclose(np.diag(percent), [100, 100, 100])
    assert support.tolist() == [1, 2, 1]


def test_confusion_constant_predictor():
    percent, _ = ev.confusion_matrix([0] * 6, [0, 1, 2, 0, 1, 2], 3)
    assert np.allclose(percent[:, 0], [100, 100, 100])
    assert percent[:, 1:].sum() == 0


def test_confusion_zero_support_row():
    percent, support = ev.confusion_matrix([0, 0], [0, 0], 3)
    assert support[1] == 0 and support[2] == 0
    assert np.array_equal(percent[1], np.zeros(3))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=60))
def test_confusion_rows_sum_to_100(pairs):
    preds = [p for p, _ in pairs]
    targets = [t for _, t in pairs]
    percent, support = ev.confusion_matrix(preds, targets, 4)
    for row, count in zip(percent, support):
        if count > 0:
            assert abs(row.sum() - 100.0) < 1e-6
        else:
            assert row.sum() == 0.0


# -- per-step rollout MSE --------------------------------------------------------------

def make_rec(traces, derivs=None):
    traces = np.asarray(traces, dtype=float)
    if derivs is None:
        derivs = np.apply_along_axis(compute_derivative, 1, traces)
    n, t = traces.shape
    return WormRecording(
        worm_id="r", dataset_tag="t", sample_period_s=0.3,
        neuron_names=[f"N{i}" for i in range(n)],
        traces=traces, derivatives=np.asarray(derivs, dtype=float),
        labels=[StateLabel.FORWARD] * t,
    )


def test_per_step_mse_identity_on_constant_recording():
    rec = make_rec(np.full((3, 64), 0.5), derivs=np.full((3, 64), 0.25))
    model = ConstantResidualModel(3)
    res = ev.per_step_mse(model, [rec], steps=16, window_len=8)
    assert np.array_equal(res.per_step, np.zeros(16))
    assert res.summary == {1: 0.0, 8: 0.0, 16: 0.0}


def test_per_step_mse_identity_on_ramp_closed_form():
    # both channels ramp with increment c: identity miss at step s is exactly (s*c)^2
    t, c = 200, 0.002
    ramp = np.arange(t) * c
    rec = make_rec(np.tile(ramp, (2, 1)), derivs=np.tile(ramp, (2, 1)))
    model = ConstantResidualModel(2)
    res = ev.per_step_mse(model, [rec], steps=16, window_len=8)
    expected = (np.arange(1, 17) * c) ** 2
    assert np.allclose(res.per_step, expected, atol=1e-9)
    # monotone non-decreasing on monotone-drift data
    assert np.all(np.diff(res.per_step) >= -1e-15)


def test_per_step_mse_skips_short_lookahead():
    rec = make_rec(np.random.default_rng(0).uniform(size=(2, 20)))
    model = ConstantResidualModel(2)
    res = ev.per_step_mse(model, [rec], steps=16, window_len=8)
    # starts 0 and 8; only start 0 has 16 frames of lookahead (0+16 < 20)
    assert res.windows_used == 1
    assert res.windows_skipped == 1


def test_per_step_mse_averages_to_total():
    rec = make_rec(np.random.default_rng(1).uniform(size=(3, 64)))
    model = ConstantResidualModel(3, residual=np.random.default_rng(2).normal(size=(3, 2)))
    res = ev.per_step_mse(model, [rec], steps=6, window_len=8)
    full = np.stack([rec.traces.T, rec.derivatives.T], axis=-1)
    teacher = np.stack([full[s : s + 7] for s in range(0, 64, 8)])
    preds = rollout_batch(model, teacher, steps=6)
    total = mse_loss(preds, teacher[:, 1:]).item()
    assert res.per_step.shape == (6,)
    assert res.windows_used == len(teacher)
    assert res.per_step.mean() == pytest.approx(total, abs=1e-12)


def test_per_step_mse_oracle_model_zero():
    # model whose constant residual exactly matches the data increment
    t, c = 120, 0.004
    ramp = np.arange(t) * c
    rec = make_rec(np.tile(ramp, (2, 1)), derivs=np.tile(ramp, (2, 1)))
    model = ConstantResidualModel(2, residual=np.full((2, 2), c))
    res = ev.per_step_mse(model, [rec], steps=8, window_len=8)
    assert np.allclose(res.per_step, 0.0, atol=1e-18)


# -- PCA ------------------------------------------------------------------------------

def test_pca_planar_data_third_component_zero():
    rng = np.random.default_rng(0)
    basis = rng.normal(size=(5, 2))
    coords = rng.normal(size=(2, 300))
    data = basis @ coords
    res = ev.pca_project(data, components=3)
    assert res.fractions[2] <= 1e-9
    assert 2 in res.zero_variance_components


def test_pca_fractions_descending_and_sum():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(6, 100))
    res = ev.pca_project(data)
    assert np.all(np.diff(res.fractions) <= 1e-12)
    assert res.fractions.sum() <= 1.0 + 1e-9
    assert res.projection.shape == (100, 3)


def test_pca_noiseless_synthetic_worm():
    cfg = SynthConfig(n_neurons=10, n_timesteps=400, n_states=4, latent_dim=3,
                      noise_std=0.0, mixing_seed=3, latent_seed=7,
                      angular_velocity_jitter=0.03)
    rec = generate_worm(cfg)
    res = ev.pca_project(rec.derivatives, components=3)
    assert res.fractions[:3].sum() >= 0.99


def test_pca_rotation_invariant_spectrum():
    # rotating the data matrix leaves the explained-variance spectrum unchanged
    rng = np.random.default_rng(5)
    data = rng.normal(size=(8, 200))
    rotation, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    frac_a = ev.pca_project(data).fractions
    frac_b = ev.pca_project(rotation @ data).fractions
    assert np.allclose(frac_a, frac_b, atol=1e-9)


def test_pca_spectrum_invariant_to_orthonormal_mixing_change():
    # two orthonormal mixings of one latent trajectory share a spectrum
    # (before the per-row normalization, which is not an orthogonal map)
    from wormgnn.synth import latent_trajectory

    base = dict(n_neurons=10, n_timesteps=300, n_states=2, noise_std=0.0, latent_seed=4)
    cfg_a = SynthConfig(mixing_seed=0, **base)
    cfg_b = SynthConfig(mixing_seed=99, **base)
    latent = latent_trajectory(cfg_a)
    frac_a = ev.pca_project(mixing_matrix(cfg_a) @ latent).fractions
    frac_b = ev.pca_project(mixing_matrix(cfg_b) @ latent).fractions
    assert np.allclose(frac_a, frac_b, atol=1e-9)


def test_pca_rejects_short_series():
    with pytest.raises(ValueError, match="timesteps"):
        ev.pca_project(np.zeros((4, 3)), components=3)


# -- exports --------------------------------------------------------------------------

def test_export_tables(tmp_path):
    ev.export_accuracy_table(tmp_path / "acc.tsv", [("mlp", 0.9, 0.01), ("gnn", 0.95, 0.02)])
    lines = (tmp_path / "acc.tsv").read_text().splitlines()
    assert lines[0] == "model\tmean\tstd"
    assert len(lines) == 3

    ev.export_confusion(tmp_path / "conf.tsv", np.eye(2) * 100, ["fwd", "rev"])
    assert "fwd" in (tmp_path / "conf.tsv").read_text()

    ev.export_mse_curves(tmp_path / "mse.tsv", {"gnn": np.arange(4.0), "mlp": np.arange(4.0) * 2})
    lines = (tmp_path / "mse.tsv").read_text().splitlines()
    assert lines[0] == "step\tgnn\tmlp"
    assert len(lines) == 5

    proj = np.random.default_rng(0).normal(size=(5, 3))
    ev.export_pca_trajectory(tmp_path / "pca.tsv", proj, [StateLabel.FORWARD] * 5)
    lines = (tmp_path / "pca.tsv").read_text().splitlines()
    assert lines[0] == "t\tpc1\tpc2\tpc3\tstate"
    assert lines[1].endswith("forward")


def test_runmetrics_roundtrip():
    metrics = ev.RunMetrics(task="classify2", permutation=["a", "b"], fold=3,
                            accuracy_test=0.9, per_step_mse=np.arange(3.0))
    d = metrics.to_dict()
    assert d["task"] == "classify2"
    assert d["per_step_mse"] == [0.0, 1.0, 2.0]
    assert d["accuracy_generalization"] is None
    assert "wall_time_s" in d
